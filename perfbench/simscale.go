package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"sspubsub/internal/core"
	"sspubsub/internal/ordering"
	"sspubsub/internal/proto"
	"sspubsub/internal/psim"
	"sspubsub/internal/scale"
	"sspubsub/internal/sim"
	"sspubsub/internal/supervisor"
)

// sim-scale: pooled subscribers on one topic, on psim with one worker.
// Set-up is a mass join and settle; the measured phase is a few
// publication fan-outs from random authors, idle maintenance rounds, and a
// 1% crash burst until the supervisor's database is exact again.
const (
	scaleN        = 2048
	scalePoolSize = 512
	scaleTopic    = sim.Topic(1)
	scaleSettle   = 16
	scaleIdle     = 32
	scaleProbes   = 24           // publications, one per round
	scaleCrashed  = scaleN / 100 // the 1% crash burst
	maxRounds     = 512
	supID         = sim.NodeID(1)
)

type simScale struct {
	eng     *psim.Engine
	sup     *supervisor.Supervisor
	pools   []*scale.Pool
	subBase sim.NodeID

	// The benchmark's ledger, allocated before the heap baseline so that
	// live_heap_mb leaves it out. Probe deliveries are indexed by probe and
	// subscriber: count and the virtual time of the first one. fanout holds
	// the publish-to-deliver latencies.
	probe    map[string]int
	gotCount [scaleProbes][]int
	gotAt    [scaleProbes][]float64
	fanout   []float64
	runNs    int64 // wall time inside the engine's Run calls (traced runs)
}

func (s *simScale) client(i int) *core.Client {
	return s.pools[i/scalePoolSize].Client(i % scalePoolSize)
}

func (s *simScale) id(i int) sim.NodeID { return s.subBase + sim.NodeID(i) }

// runRound advances the engine by one round, timing it for the tracer.
func (s *simScale) runRound() {
	start := nanotime()
	s.eng.RunRounds(1)
	s.runNs += nanotime() - start
}

// newSimScale allocates the ledger; build makes the system.
func newSimScale() *simScale {
	s := &simScale{
		probe:  make(map[string]int, scaleProbes),
		fanout: make([]float64, 0, scaleProbes*scaleN),
	}
	for p := range s.gotCount {
		s.gotCount[p] = make([]int, scaleN)
		s.gotAt[p] = make([]float64, scaleN)
	}
	return s
}

func (s *simScale) build(seed int64, tr *tracer) {
	s.eng = psim.New(psim.Options{Seed: seed, Workers: 1})
	s.sup = supervisor.New(supID, s.eng)
	s.sup.CullPerTimeout = scaleN / 64
	if tr != nil {
		tracedTransport{s.eng, tr}.AddNode(supID, s.sup)
	} else {
		s.eng.AddNode(supID, s.sup)
	}
	numPools := (scaleN + scalePoolSize - 1) / scalePoolSize
	s.subBase = supID + 1 + sim.NodeID(numPools)
	opts := core.Options{OnDeliverTrace: s.onDeliver}
	for j := 0; j < numPools; j++ {
		base := s.subBase + sim.NodeID(j*scalePoolSize)
		poolID := supID + 1 + sim.NodeID(j)
		if tr == nil {
			p := scale.NewPool(s.eng, base, scalePoolSize, supID, opts)
			p.Register(s.eng, poolID)
			s.pools = append(s.pools, p)
			continue
		}
		st := tr.newNode(kindSubscriber)
		p := scale.NewPool(poolSender{s.eng, st}, base, scalePoolSize, supID, opts)
		p.Register(poolSubstrate{s.eng, tr, st, p}, poolID)
		s.pools = append(s.pools, p)
	}
}

func (s *simScale) onDeliver(node sim.NodeID, t sim.Topic, p proto.Publication, _ ordering.Meta) {
	i := int(node - s.subBase)
	k, ok := s.probe[p.Payload]
	if t != scaleTopic || i < 0 || i >= scaleN || !ok {
		return
	}
	if s.gotCount[k][i] == 0 {
		s.gotAt[k][i] = s.eng.Now() // start of the executing window (Workers = 1)
	}
	s.gotCount[k][i]++
}

// runSimScale executes one sim-scale iteration.
func runSimScale(seed int64, tr *tracer) (*iteration, error) {
	rng := rand.New(rand.NewSource(seed))
	it := newIteration()

	s := newSimScale()
	heap0 := liveHeapMB()
	setupStart := time.Now()
	s.build(seed, tr)
	defer s.eng.Close()
	for i := 0; i < scaleN; i++ {
		id := s.id(i)
		s.eng.Send(sim.Message{To: id, From: id, Topic: scaleTopic, Body: core.JoinTopic{}})
	}
	joinRounds, pending := awaitEach(scaleN, s.runRound, func(i int) bool { return s.client(i).Labelled(scaleTopic) })
	it.attempted += scaleN
	it.failed += int64(pending)
	if pending > 0 {
		return it, fmt.Errorf("sim-scale: %d of %d subscribers unlabelled after %d rounds", pending, scaleN, maxRounds)
	}
	for r := 0; r < scaleSettle; r++ {
		s.runRound()
	}
	it.setupS = time.Since(setupStart).Seconds()

	// Measured phase.
	if tr != nil {
		tr.reset()
		s.runNs = 0
	}
	rt0 := readRuntime()
	cpu0 := cpuSeconds()
	delivered0 := s.eng.Delivered()
	dropped0 := s.eng.Dropped()
	types0 := countsByType(s.eng)
	round0 := s.eng.Now()

	var authors [scaleProbes]int
	for k := range authors {
		authors[k] = rng.Intn(scaleN)
		payload := fmt.Sprintf("probe-%d-%d-%x", seed, k, rng.Uint64())
		s.probe[payload] = k
		id := s.id(authors[k])
		s.eng.Send(sim.Message{To: id, From: id, Topic: scaleTopic, Body: core.PublishCmd{Payload: payload}})
		s.runRound()
	}
	_, pending = awaitEach(scaleN, s.runRound, func(i int) bool {
		for k := range s.gotCount {
			if s.gotCount[k][i] == 0 {
				return false
			}
		}
		return true
	})
	it.attempted += scaleN * scaleProbes
	it.failed += int64(pending * scaleProbes)
	for k, a := range authors {
		for i := 0; i < scaleN; i++ {
			if i != a && s.gotCount[k][i] > 0 {
				s.fanout = append(s.fanout, s.gotAt[k][i]-s.gotAt[k][a])
			}
		}
	}
	for r := 0; r < scaleIdle; r++ {
		s.runRound()
	}

	dead := rng.Perm(scaleN)[:scaleCrashed]
	sort.Ints(dead)
	for _, i := range dead {
		s.eng.Crash(s.id(i))
		s.pools[i/scalePoolSize].Kill(i % scalePoolSize)
	}
	stabilize, ok := runUntil(s.runRound, func() bool { return s.sup.N(scaleTopic) == scaleN-len(dead) })
	it.cpuS = cpuSeconds() - cpu0
	rt1 := readRuntime()
	rounds := s.eng.Now() - round0

	// Oracle: every live subscriber is labelled and holds the probe exactly
	// once; the supervisor's database holds exactly the live subscribers.
	isDead := make(map[int]bool, len(dead))
	for _, i := range dead {
		isDead[i] = true
	}
	it.attempted += int64(len(dead))
	if !ok {
		it.failed += int64(len(dead))
		return it, fmt.Errorf("sim-scale: supervisor database not exact %d rounds after the crash burst", maxRounds)
	}
	snap := s.sup.Snapshot(scaleTopic)
	inDB := make(map[sim.NodeID]bool, len(snap))
	for _, v := range snap {
		inDB[v] = true
	}
	for i := 0; i < scaleN; i++ {
		switch {
		case isDead[i] && inDB[s.id(i)]:
			it.failed++
			return it, fmt.Errorf("sim-scale: crashed subscriber %d still in the database", s.id(i))
		case isDead[i]:
		case !inDB[s.id(i)] || !s.client(i).Labelled(scaleTopic):
			it.failed++
			return it, fmt.Errorf("sim-scale: live subscriber %d lost its label or database entry", s.id(i))
		case s.client(i).PublicationCount(scaleTopic) != scaleProbes:
			it.failed++
			return it, fmt.Errorf("sim-scale: subscriber %d holds %d publications, want %d",
				s.id(i), s.client(i).PublicationCount(scaleTopic), scaleProbes)
		}
		for k := range s.gotCount {
			if !isDead[i] && s.gotCount[k][i] != 1 {
				it.failed++
				return it, fmt.Errorf("sim-scale: subscriber %d got probe %d %d times", s.id(i), k, s.gotCount[k][i])
			}
		}
	}

	live := scaleN - len(dead)
	it.heapMB = liveHeapMB() - heap0
	runtime.KeepAlive(s)
	it.msgsPerSubRound = float64(s.eng.Delivered()-delivered0) / float64(live) / rounds
	it.exact["msgs_per_sub_round"] = it.msgsPerSubRound
	it.setLatency(s.fanout)
	it.addExactLatency()
	it.exact["join_p95_rounds"] = quantileOf(intsToFloats(joinRounds), 0.95)
	it.exact["stabilize_rounds"] = float64(stabilize)
	addTypeDelta(it.exact, types0, countsByType(s.eng))

	if tr != nil {
		lt := tr.totals()
		it.layer = protocolLayers(lt)
		addEngineLayer(it.layer, lt, s.runNs, s.eng.Delivered()-delivered0+lt.nodeTimeouts)
		it.layer["psim.queue_hw_bytes"] = float64(s.eng.QueueHighWaterBytes())
		it.layer["psim.dropped"] = float64(s.eng.Dropped() - dropped0)
		it.layer["supervisor.db_bytes"] = float64(s.sup.MemoryBytes(scaleTopic))
		var trie uint64
		for i := 0; i < scaleN; i++ {
			if in, ok := s.client(i).Instance(scaleTopic); ok && !isDead[i] {
				trie += in.Eng.Trie().MemoryBytes()
			}
		}
		it.layer["trie.bytes_per_sub"] = float64(trie) / float64(live)
		addRuntimeDelta(it.layer, rt0, rt1)
	}
	return it, nil
}

// awaitEach runs rounds until pred holds for every index (or maxRounds
// elapse) and returns, per index, the round it first held at, plus how
// many indices never reached it. Indices leave the scan once they hold.
func awaitEach(n int, round func(), pred func(i int) bool) (at []int, pending int) {
	at = make([]int, n)
	todo := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !pred(i) {
			todo = append(todo, i)
		}
	}
	for r := 1; r <= maxRounds && len(todo) > 0; r++ {
		round()
		next := todo[:0]
		for _, i := range todo {
			if pred(i) {
				at[i] = r
			} else {
				next = append(next, i)
			}
		}
		todo = next
	}
	return at, len(todo)
}

// runUntil runs rounds until pred holds, returning the rounds it took.
func runUntil(round func(), pred func() bool) (int, bool) {
	for r := 0; r <= maxRounds; r++ {
		if pred() {
			return r, true
		}
		round()
	}
	return maxRounds, false
}

// typeCounter is the message accounting both engines of the benchmark
// expose.
type typeCounter interface {
	TypeNames() []string
	CountByType(string) int64
}

func countsByType(e typeCounter) map[string]int64 {
	out := make(map[string]int64)
	for _, n := range e.TypeNames() {
		out[n] = e.CountByType(n)
	}
	return out
}

// addTypeDelta records the sends per message type between two snapshots
// as msgs.<Type> counts.
func addTypeDelta(m map[string]float64, a, b map[string]int64) {
	for n, v := range b {
		if d := v - a[n]; d != 0 {
			m["msgs."+n] = float64(d)
		}
	}
}

func intsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}
