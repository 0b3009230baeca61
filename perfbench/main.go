// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the system built from source, checks every output
// against an oracle, and prints its metrics as one JSON object on the last
// line of standard output:
//
//	bash perfbench/run.sh --workload sim-scale --seed 1 --seconds 50 --trace 0
//
// from the repository root. Workloads: sim-scale, sim-churn, tcp-publish
// (WORKLOADS.md says why each was chosen and what it measures), or "all"
// to run the three in turn. With --trace 1 the run reports the per-layer
// breakdown instead of the end-to-end metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// iteration is one set-up plus one measured phase of a workload.
type iteration struct {
	setupS, cpuS, heapMB float64
	attempted, failed    int64
	msgsPerSubRound      float64
	latency              []float64 // publish-to-deliver, in rounds
	msPerRound           float64   // wall-clock ms per round (live workloads only)
	// exact holds the counts a seed determines exactly; repeated and
	// traced iterations of one seed must reproduce them bit for bit.
	exact map[string]float64
	// layer holds the traced per-layer metrics (nil when untraced).
	layer map[string]float64
	notes []string
	spans []pubSpan // traced tcp-publish: one span per publication
}

func newIteration() *iteration { return &iteration{exact: make(map[string]float64)} }

func (it *iteration) setLatency(rounds []float64) {
	it.latency = append([]float64(nil), rounds...)
	sort.Float64s(it.latency)
}

// addExactLatency records the latency percentiles among the exact counts:
// on the simulated workloads they are virtual time, fixed by the seed.
func (it *iteration) addExactLatency() {
	for _, q := range []float64{50, 95, 99} {
		it.exact[fmt.Sprintf("deliver_p%g_rounds", q)] = quantile(it.latency, q/100)
	}
}

type runFunc func(seed int64, tr *tracer) (*iteration, error)

type workload struct {
	name string
	run  runFunc
	// nominal is one iteration's wall time on a 2-core host; it sets how
	// many iterations fit the --seconds budget.
	nominal time.Duration
	// procs is the GOMAXPROCS the workload runs with (0: one per CPU).
	procs int
}

// The simulated workloads run with one P: psim executes its one worker
// inline, and a second P would mostly run idle-priority GC mark workers
// and spinning threads, whose CPU time depends on timing rather than on
// work. The live workload gets every CPU, as a deployment would.
var workloads = []workload{
	{"sim-scale", runSimScale, 3600 * time.Millisecond, 1},
	{"sim-churn", runSimChurn, 2 * time.Second, 1},
	{"tcp-publish", runTCPPublish, 8 * time.Second, 0},
}

// plan returns how many iterations a run of the given budget makes. It
// depends only on the budget, never on how fast the host is, so a seed's
// exact counts are the same on every run.
func (w workload) plan(budget time.Duration, traced bool) int {
	per := w.nominal
	if traced {
		per *= 3 // one untraced and one (slower) traced iteration
	}
	n := int(budget / per)
	if !traced && n < minIterations {
		n = minIterations
	}
	if n < 1 {
		n = 1
	}
	return n
}

// subSeed derives iteration i's seed: iteration 0 runs the seed itself,
// the others distinct seeds derived from it, so a run's medians average
// over several inputs drawn from its seed.
func subSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	return int64(x >> 1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics with their units, in print order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"live_heap_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"msgs_per_sub_round", "msgs"},
	{"deliver_p50_rounds", "rounds"},
}

// perLayer lists the traced per-layer metrics. Every traced run reports
// each of them; a layer a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"deliver_p99_rounds", "rounds"},
	{"psim.events", "count"},
	{"psim.self_cpu_s", "s"},
	{"psim.ns_per_event", "ns"},
	{"psim.queue_hw_bytes", "bytes"},
	{"psim.dropped", "count"},
	{"core.timeout_calls", "count"},
	{"core.timeout_s", "s"},
	{"core.msg_calls", "count"},
	{"core.msg_s", "s"},
	{"core.msgs_sent", "count"},
	{"supervisor.calls", "count"},
	{"supervisor.s", "s"},
	{"supervisor.msgs_sent", "count"},
	{"supervisor.db_bytes", "bytes"},
	{"pubsub.calls", "count"},
	{"pubsub.s", "s"},
	{"pubsub.msgs", "count"},
	{"trie.bytes_per_sub", "bytes"},
	{"concurrent.handler_s", "s"},
	{"concurrent.busy_ratio", "ratio"},
	{"concurrent.delivered", "count"},
	{"concurrent.dropped", "count"},
	{"nettransport.send_calls", "count"},
	{"nettransport.send_s", "s"},
	{"nettransport.lost_frames", "count"},
	{"nettransport.garbage_frames", "count"},
	{"nettransport.slabs_outstanding", "count"},
	{"wire.encode_ns_per_msg", "ns"},
	{"wire.decode_ns_per_msg", "ns"},
	{"wire.bytes_per_msg", "bytes"},
	{"sub.dropped", "count"},
	{"gc.cpu_s", "s"},
	{"gc.assist_s", "s"},
	{"gc.cycles", "count"},
	{"alloc_mb", "MB"},
	{"allocs", "count"},
	{"loadgen.late_max_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.cpu_s", "s"},
	{"trace.overhead_cpu_s", "s"},
	{"trace.unattributed_s", "s"},
	{"proto.join_p95_rounds", "rounds"},
	{"proto.stabilize_rounds", "rounds"},
	{"proto.converge_rounds", "rounds"},
	{"proto.sup_msgs_per_op", "msgs"},
	{"msgs.proto.Subscribe", "count"},
	{"msgs.proto.Unsubscribe", "count"},
	{"msgs.proto.GetConfiguration", "count"},
	{"msgs.proto.SetData", "count"},
	{"msgs.proto.Check", "count"},
	{"msgs.proto.Introduce", "count"},
	{"msgs.proto.Linearize", "count"},
	{"msgs.proto.RemoveConnections", "count"},
	{"msgs.proto.IntroduceShortcut", "count"},
	{"msgs.proto.CheckTrie", "count"},
	{"msgs.proto.CheckAndPublish", "count"},
	{"msgs.proto.PublishBatch", "count"},
	{"msgs.proto.PublishNew", "count"},
}

func main() {
	name := flag.String("workload", "", "sim-scale, sim-churn, tcp-publish or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 50, "measurement budget; fixes the number of iterations")
	trace := flag.Int("trace", 0, "1: report the traced per-layer breakdown")
	flag.StringVar(&outDir, "out", outDir, "directory traced runs write their traces under")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail("--trace must be 0 or 1")
	}
	budget := time.Duration(*seconds) * time.Second
	if *name == "all" {
		ok := true
		for _, w := range workloads {
			fmt.Printf("== %s\n", w.name)
			ok = runWorkload(w, *seed, budget, *trace == 1) && ok
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	for _, w := range workloads {
		if w.name == *name {
			if !runWorkload(w, *seed, budget, *trace == 1) {
				os.Exit(1)
			}
			return
		}
	}
	fail(fmt.Sprintf("unknown --workload %q", *name))
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
	os.Exit(2)
}

// runWorkload measures one workload and prints its report. It returns
// whether every oracle check passed.
func runWorkload(w workload, seed int64, budget time.Duration, traced bool) bool {
	procs := w.procs
	if procs == 0 {
		procs = runtime.NumCPU()
	}
	runtime.GOMAXPROCS(procs)
	var res result
	var err error
	if traced {
		res, err = measureTraced(w, seed, budget)
	} else {
		res, err = measure(w, seed, budget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: FAIL: %v\n", w.name, seed, err)
		res.Correct = false
		res.Metrics = map[string]metric{} // figures of a failed run are not results
	}
	out, jerr := json.Marshal(res)
	if jerr != nil {
		fail(jerr.Error())
	}
	fmt.Println(string(out))
	return res.Correct
}

// minIterations is the fewest iterations an untraced run makes, so each
// reported figure is a median of at least three.
const minIterations = 3

// measure runs the planned iterations and reports the median of each
// figure. The last iteration repeats the first one's seed and must
// reproduce its exact counts bit for bit.
func measure(w workload, seed int64, budget time.Duration) (result, error) {
	n := w.plan(budget, false)
	var its []*iteration
	for i := 0; i < n; i++ {
		s := subSeed(seed, i)
		if i == n-1 {
			s = subSeed(seed, 0)
		}
		it, err := w.run(s, nil)
		if it != nil {
			its = append(its, it)
		}
		if err != nil {
			return summarize(its, nil), fmt.Errorf("iteration %d (seed %d): %w", i+1, s, err)
		}
	}
	if err := sameCounts(its[0].exact, its[n-1].exact); err != nil {
		return summarize(its, nil), fmt.Errorf("a repeat of seed %d diverged from its first run: %v", seed, err)
	}
	res := summarize(its, nil)
	printTable(w.name, seed, its, res)
	return res, nil
}

// measureTraced runs pairs of one untraced and one traced iteration of the
// same seed. The pair's exact counts must agree (the wrappers may cost
// time but must not perturb the schedule); the traced CPU time minus the
// untraced one is the tracing overhead.
func measureTraced(w workload, seed int64, budget time.Duration) (result, error) {
	var plain, traced []*iteration
	for i := 0; i < w.plan(budget, true); i++ {
		s := subSeed(seed, i)
		p, err := w.run(s, nil)
		if err != nil {
			return summarize(plain, nil), fmt.Errorf("seed %d: %w", s, err)
		}
		tr := newTracer()
		t, err := w.run(s, tr)
		if err != nil {
			return summarize(plain, nil), fmt.Errorf("seed %d traced: %w", s, err)
		}
		if err := sameCounts(p.exact, t.exact); err != nil {
			return summarize(plain, nil), fmt.Errorf("seed %d: traced run diverged from untraced run: %v", s, err)
		}
		// The tail latency comes from the untraced iteration: wrappers
		// cost time, and on the live runtime that shifts latency.
		t.layer["deliver_p99_rounds"] = quantile(p.latency, 0.99)
		t.layer["trace.cpu_s"] = t.cpuS
		t.layer["trace.overhead_cpu_s"] = t.cpuS - p.cpuS
		t.layer["trace.unattributed_s"] = t.cpuS - attributed(t.layer, runtime.GOMAXPROCS(0) == 1)
		for k, v := range t.exact {
			switch {
			case strings.HasPrefix(k, "msgs."):
				t.layer[k] = v
			case !strings.HasPrefix(k, "deliver_") && k != "msgs_per_sub_round":
				t.layer["proto."+k] = v
			}
		}
		plain = append(plain, p)
		traced = append(traced, t)
	}
	res := summarize(plain, traced)
	printTable(w.name+" (traced)", seed, traced, res)
	path, err := writeTrace(w.name, seed, traced)
	if err != nil {
		return res, err
	}
	fmt.Printf("  trace written to %s\n", path)
	return res, nil
}

// attributed sums the time the layers account for: their self times, the
// send time, and the GC work that no layer span already holds. GC assists
// run inside handler spans. With one P the background mark workers take
// that P, so their time lies inside whichever wall-clock span was open (an
// engine run or a handler) and adding gc.cpu_s would count it twice; with
// several Ps they run beside the spans and are added.
func attributed(layer map[string]float64, oneP bool) float64 {
	sum := layer["psim.self_cpu_s"] + layer["core.timeout_s"] + layer["core.msg_s"] +
		layer["supervisor.s"] + layer["pubsub.s"] + layer["nettransport.send_s"]
	if !oneP {
		sum += layer["gc.cpu_s"] - layer["gc.assist_s"]
	}
	return sum
}

// outDir is the build output directory (run.sh passes $CARGO_TARGET_DIR);
// traced runs write their ledgers and spans under its traces/ directory.
var outDir = ".bench_build"

// writeTrace writes every traced iteration's per-layer metrics, exact
// counts and publication spans as one JSON file.
func writeTrace(name string, seed int64, traced []*iteration) (string, error) {
	type record struct {
		Layers map[string]float64 `json:"layers"`
		Exact  map[string]float64 `json:"exact"`
		Notes  []string           `json:"notes,omitempty"`
		Spans  []pubSpan          `json:"spans,omitempty"`
	}
	out := make([]record, len(traced))
	for i, it := range traced {
		out[i] = record{it.layer, it.exact, it.notes, it.spans}
	}
	data, err := json.Marshal(map[string]any{"workload": name, "seed": seed, "iterations": out})
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	dir := filepath.Join(outDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

// sameCounts reports the first exact count on which two iterations differ.
func sameCounts(a, b map[string]float64) error {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a[k] != b[k] {
			return fmt.Errorf("%s: %v vs %v", k, a[k], b[k])
		}
	}
	return nil
}

// summarize reduces iterations to the reported metrics: the median over
// iterations of each figure. With traced iterations it reports the
// per-layer metrics instead of the end-to-end ones.
func summarize(its, traced []*iteration) result {
	res := result{Correct: true, Metrics: make(map[string]metric)}
	for _, it := range append(append([]*iteration(nil), its...), traced...) {
		res.Attempted += it.attempted
		res.Failed += it.failed
	}
	if res.Failed > 0 || len(its) == 0 {
		res.Correct = false
	}
	if len(its) == 0 {
		return res
	}
	col := func(f func(*iteration) float64, from []*iteration) float64 {
		xs := make([]float64, len(from))
		for i, it := range from {
			xs[i] = f(it)
		}
		return median(xs)
	}
	if traced != nil {
		for _, m := range perLayer {
			name := m.name
			res.Metrics[name] = metric{col(func(it *iteration) float64 { return it.layer[name] }, traced), m.unit}
		}
		return res
	}
	vals := map[string]float64{
		"setup_s":            col(func(it *iteration) float64 { return it.setupS }, its),
		"cpu_s":              col(func(it *iteration) float64 { return it.cpuS }, its),
		"live_heap_mb":       col(func(it *iteration) float64 { return it.heapMB }, its),
		"msgs_per_sub_round": col(func(it *iteration) float64 { return it.msgsPerSubRound }, its),
	}
	// Latency percentiles pool every iteration's samples.
	lat := pooled(its, func(it *iteration) []float64 { return it.latency })
	vals["deliver_p50_rounds"] = quantile(lat, 0.50)
	vals["ok_ratio"] = 1 - float64(res.Failed)/math.Max(1, float64(res.Attempted))
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	return res
}

// printTable prints a human-readable report ahead of the JSON line: every
// metric with its unit, the sample counts behind the percentiles, and the
// oracle's verdict.
func printTable(name string, seed int64, its []*iteration, res result) {
	fmt.Printf("%s  seed=%d  iterations=%d  verdict=%s  (%d of %d checked operations failed)\n",
		name, seed, len(its), verdict(res.Correct), res.Failed, res.Attempted)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-32s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for i, it := range its {
		fmt.Printf("  iteration %d: setup %.3fs  cpu %.3fs  heap %.2fMB  msgs/sub/round %.5g  latency p50 %.4g p95 %.4g p99 %.4g rounds (n=%d)\n",
			i+1, it.setupS, it.cpuS, it.heapMB, it.msgsPerSubRound, quantile(it.latency, 0.5), quantile(it.latency, 0.95), quantile(it.latency, 0.99), len(it.latency))
	}
	if len(its) == 0 {
		return
	}
	lat := pooled(its, func(it *iteration) []float64 { return it.latency })
	fmt.Printf("  latency samples pooled: %d (highest percentile with >= 10 samples beyond it: p%g); p95 %.4g p99 %.4g rounds\n",
		len(lat), tailPercentile(len(lat)), quantile(lat, 0.95), quantile(lat, 0.99))
	if ms := its[0].msPerRound; ms > 0 {
		tail := tailPercentile(len(lat))
		fmt.Printf("  deliver latency, wall clock: p50 %.3f ms, p90 %.3f ms, p95 %.3f ms, p99 %.3f ms, p%g %.3f ms\n",
			ms*quantile(lat, 0.5), ms*quantile(lat, 0.9), ms*quantile(lat, 0.95), ms*quantile(lat, 0.99), tail, ms*quantile(lat, tail/100))
	}
	it := its[0]
	keys := make([]string, 0, len(it.exact))
	for k := range it.exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  exact (first iteration) %-40s %v\n", k, it.exact[k])
	}
	for _, it := range its {
		for _, n := range it.notes {
			fmt.Printf("  %s\n", n)
		}
	}
}

func pooled(its []*iteration, f func(*iteration) []float64) []float64 {
	var out []float64
	for _, it := range its {
		out = append(out, f(it)...)
	}
	sort.Float64s(out)
	return out
}

func verdict(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// protocolLayers derives the subscriber, supervisor and publication layer
// metrics from the tracer's ledgers.
func protocolLayers(lt layerTotals) map[string]float64 {
	return map[string]float64{
		"core.timeout_calls":   float64(lt.timeoutCalls),
		"core.timeout_s":       seconds(lt.timeoutNs),
		"core.msg_calls":       float64(lt.msgCalls),
		"core.msg_s":           seconds(lt.msgNs),
		"core.msgs_sent":       float64(lt.sentCore),
		"supervisor.calls":     float64(lt.supCalls),
		"supervisor.s":         seconds(lt.supNs),
		"supervisor.msgs_sent": float64(lt.sentSup),
		"pubsub.calls":         float64(lt.pubCalls),
		"pubsub.s":             seconds(lt.pubNs),
		"pubsub.msgs":          float64(lt.sentPub),
	}
}

// addEngineLayer adds the psim metrics: the engine's self time is the time
// inside its Run calls minus the handlers' self time (sends included).
func addEngineLayer(m map[string]float64, lt layerTotals, runNs, events int64) {
	self := runNs - lt.handlerNs()
	m["psim.self_cpu_s"] = seconds(self)
	m["psim.events"] = float64(events)
	m["psim.ns_per_event"] = float64(self) / float64(events)
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }
