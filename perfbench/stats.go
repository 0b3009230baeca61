package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks. xs must be sorted ascending.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median sorts a copy of xs and returns its middle value.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile that leaves at
// least ten samples beyond it among n samples, or 0 when n is too small
// for even the median to qualify. A percentile with fewer samples beyond
// it is decided by a handful of outliers and does not repeat.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exact in binary
			return p
		}
	}
	return 0
}

// timevalSeconds converts a rusage timeval to seconds.
func timevalSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// cpuSeconds returns the process CPU time consumed so far, user plus
// system, over all threads. Unlike wall-clock time it does not count the
// time other tenants of a shared host steal from this process.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF
	}
	return timevalSeconds(ru.Utime) + timevalSeconds(ru.Stime)
}

// lateness returns, in milliseconds, the largest and the p99 delay of
// each actual send time behind its scheduled time (early sends count as
// 0). An open-loop generator that falls behind its schedule under-loads
// the system, so a run whose generator was late is not a valid sample of
// the configured rate.
func lateness(scheduled, actual []time.Duration) (maxMs, p99Ms float64) {
	late := make([]float64, len(actual))
	for i := range actual {
		d := actual[i] - scheduled[i]
		if d < 0 {
			d = 0
		}
		late[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(late)
	if len(late) == 0 {
		return 0, 0
	}
	return late[len(late)-1], quantile(late, 0.99)
}

// runtimeSample is a snapshot of the Go runtime's cumulative GC and
// allocation counters.
type runtimeSample struct {
	gcCPU       float64
	gcAssist    float64
	gcCycles    uint64
	allocBytes  uint64
	allocObject uint64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/gc/mark/assist:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:       s[0].Value.Float64(),
		gcAssist:    s[1].Value.Float64(),
		gcCycles:    s[2].Value.Uint64(),
		allocBytes:  s[3].Value.Uint64(),
		allocObject: s[4].Value.Uint64(),
	}
}

// addRuntimeDelta records the runtime counters accumulated between two
// samples as per-layer metrics.
func addRuntimeDelta(m map[string]float64, a, b runtimeSample) {
	m["gc.cpu_s"] = b.gcCPU - a.gcCPU
	m["gc.assist_s"] = b.gcAssist - a.gcAssist
	m["gc.cycles"] = float64(b.gcCycles - a.gcCycles)
	m["alloc_mb"] = float64(b.allocBytes-a.allocBytes) / (1 << 20)
	m["allocs"] = float64(b.allocObject - a.allocObject)
}

// liveHeapMB forces a collection and returns the heap still in use, in
// MiB, independent of when GC last ran. The workloads report the growth
// from before set-up to the end of the measured phase: what the system
// under test retains.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
