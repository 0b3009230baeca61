package main

import (
	"encoding/json"
	"math"
	"os"
	"syscall"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{100000, 99.9},
		{10000, 99.9},
		{9999, 99},
		{1000, 99},
		{999, 95},
		{200, 95},
		{199, 90},
		{100, 90},
		{40, 75},
		{39, 50},
		{20, 50},
		{19, 0},
		{0, 0},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileInterpolatesBetweenRanks(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.25, 2}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples must be NaN")
	}
}

func TestTimevalSeconds(t *testing.T) {
	if got := timevalSeconds(syscall.Timeval{Sec: 3, Usec: 250000}); got != 3.25 {
		t.Fatalf("timevalSeconds = %v, want 3.25", got)
	}
}

// TestCPUSecondsCountsWorkNotWaiting checks the accounting cpu_s rests on:
// busy work advances process CPU time, sleeping barely does.
func TestCPUSecondsCountsWorkNotWaiting(t *testing.T) {
	c0 := cpuSeconds()
	time.Sleep(200 * time.Millisecond)
	slept := cpuSeconds() - c0
	if slept > 0.05 {
		t.Errorf("sleeping 200ms consumed %.3fs of CPU", slept)
	}

	c0 = cpuSeconds()
	x := 0.0
	for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	busy := cpuSeconds() - c0
	if x == 0 {
		t.Fatal("unreachable: keeps the loop from being optimised away")
	}
	// Steal on a shared host can take part of the wall time, so only ask
	// for a quarter of it.
	if busy < 0.05 {
		t.Errorf("200ms of busy work consumed only %.3fs of CPU", busy)
	}
}

func TestLatenessFromScheduledSendTimes(t *testing.T) {
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	sched := []time.Duration{0, ms(2), ms(4), ms(6)}
	actual := []time.Duration{ms(0.5), ms(1.5), ms(7), ms(6)} // early send counts as on time
	max, p99 := lateness(sched, actual)
	if math.Abs(max-3) > 1e-9 {
		t.Errorf("max lateness = %v ms, want 3", max)
	}
	// Sorted lateness is [0 0 0.5 3]; p99 interpolates 97% of the way
	// from 0.5 to 3.
	if want := 0.5 + 0.97*2.5; math.Abs(p99-want) > 1e-9 {
		t.Errorf("p99 lateness = %v ms, want %v", p99, want)
	}
	if max, p99 := lateness(nil, nil); max != 0 || p99 != 0 {
		t.Errorf("lateness of no sends = %v, %v; want 0, 0", max, p99)
	}
}

func TestSameCountsReportsFirstDifference(t *testing.T) {
	a := map[string]float64{"x": 1, "y": 2}
	if err := sameCounts(a, map[string]float64{"y": 2, "x": 1}); err != nil {
		t.Fatalf("equal counts reported different: %v", err)
	}
	if err := sameCounts(a, map[string]float64{"x": 1, "y": 3}); err == nil {
		t.Fatal("a changed count went unnoticed")
	}
	if err := sameCounts(a, map[string]float64{"x": 1, "y": 2, "z": 1}); err == nil {
		t.Fatal("an extra count went unnoticed")
	}
}

func TestAttributedCountsBackgroundGCOnce(t *testing.T) {
	layer := map[string]float64{
		"psim.self_cpu_s": 1, "core.timeout_s": 0.5, "core.msg_s": 0.25,
		"gc.cpu_s": 0.2, "gc.assist_s": 0.05,
	}
	// One P: background GC ran inside the wall-clock spans already.
	if got := attributed(layer, true); math.Abs(got-1.75) > 1e-12 {
		t.Errorf("one P: attributed = %v, want 1.75", got)
	}
	// Several Ps: background GC ran beside the spans; assists inside them.
	if got := attributed(layer, false); math.Abs(got-1.9) > 1e-12 {
		t.Errorf("several Ps: attributed = %v, want 1.9", got)
	}
}

// TestBenchmarkJSONMatchesReport checks that BENCHMARK.json declares
// exactly the metrics, units and workloads the benchmark reports.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	known := make(map[string]bool)
	for _, w := range workloads {
		known[w.name] = true
	}
	for _, w := range spec.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json declares workload %q, which the benchmark does not run", w.Name)
		}
	}
}
