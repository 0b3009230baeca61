package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sspubsub"
	"sspubsub/internal/core"
	"sspubsub/internal/runtime/nettransport"
	"sspubsub/internal/sim"
	"sspubsub/internal/supervisor"
)

// tcp-publish: sspubsub.System clients on one topic over the loopback TCP
// transport, so every message crosses the wire codec and a real socket.
// Load is open loop: one goroutine publishes at a fixed rate, rotating
// through the publishers, whether or not earlier publications have been
// delivered. Each delivery is timed on Subscription.Events from the
// publication's scheduled send time.
const (
	tcpClients  = 32
	tcpRate     = 200 // publications per second
	tcpInterval = 10 * time.Millisecond
	tcpWarmup   = time.Second
	tcpLeadIn   = 100 * time.Millisecond // load before the window, unmeasured
	tcpWindow   = 6 * time.Second
	tcpCoolDown = 200 * time.Millisecond // load after the window, unmeasured
	tcpDrain    = 5 * time.Second        // deadline for the last deliveries
	tcpPayloadB = 64
	tcpTopic    = "bench"
	tcpCapture  = 20000 // messages kept for the codec replay
)

// loadGen publishes payloads[from:to] at tcpRate and records, per
// publication, its scheduled and actual send offsets from the run's
// origin, and the instant its Publish call began.
type loadGen struct {
	clients  []*sspubsub.Client
	payloads []string
	start    atomic.Int64 // unix ns at which publication 0 was due
	sched    []time.Duration
	actual   []time.Duration
	callNs   []int64
}

const period = time.Second / tcpRate

func (g *loadGen) run(from, to int) error {
	origin := time.Now()
	g.start.Store(origin.UnixNano() - int64(time.Duration(from)*period))
	for i := from; i < to; i++ {
		due := time.Duration(i-from) * period
		if d := due - time.Since(origin); d > 0 {
			time.Sleep(d)
		}
		g.sched[i] = due
		g.actual[i] = time.Since(origin)
		g.callNs[i] = time.Now().UnixNano()
		if err := g.clients[i%tcpClients].Publish(tcpTopic, g.payloads[i]); err != nil {
			return err
		}
	}
	return nil
}

// dueAt is the wall-clock instant publication i was scheduled for.
func (g *loadGen) dueAt(i int) int64 { return g.start.Load() + int64(time.Duration(i)*period) }

// consumer drains one subscription, counting every payload it receives and
// timing the ones another client published.
type consumer struct {
	idx       int
	gen       *loadGen
	measured  [2]int // [from, to) ids whose latency is sampled
	got       []uint8
	latencyMs []float64
	spans     []int64 // traced: receive instant per id (unix ns)
	received  *atomic.Int64
}

func (c *consumer) loop(events <-chan sspubsub.Publication) {
	for ev := range events {
		now := time.Now().UnixNano()
		id, err := strconv.Atoi(ev.Payload[:strings.IndexByte(ev.Payload, '|')])
		if err != nil || id < 0 || id >= len(c.got) {
			continue // not a payload of this run: the check counts it missing
		}
		if c.got[id] < 255 {
			c.got[id]++
		}
		c.received.Add(1)
		if c.spans != nil {
			c.spans[id] = now
		}
		if id >= c.measured[0] && id < c.measured[1] && id%tcpClients != c.idx {
			c.latencyMs = append(c.latencyMs, float64(now-c.gen.dueAt(id))/1e6)
		}
	}
}

// runTCPPublish executes one tcp-publish iteration.
func runTCPPublish(seed int64, tr *tracer) (*iteration, error) {
	rng := rand.New(rand.NewSource(seed))
	it := newIteration()
	// Publication ids: warm-up, lead-in, measured window, cool-down. The
	// lead-in and cool-down keep the load steady around the window, so the
	// window's deliveries see neither the quiesce before it nor the one
	// after it.
	warm := int(tcpWarmup / period)
	from := warm + int(tcpLeadIn/period)
	to := from + int(tcpWindow/period)
	total := to + int(tcpCoolDown/period)
	gen := &loadGen{
		payloads: make([]string, total),
		sched:    make([]time.Duration, total),
		actual:   make([]time.Duration, total),
		callNs:   make([]int64, total),
		clients:  make([]*sspubsub.Client, 0, tcpClients),
	}
	pad := make([]byte, tcpPayloadB)
	for i := range gen.payloads {
		for j := range pad {
			pad[j] = 'a' + byte(rng.Intn(26))
		}
		gen.payloads[i] = strconv.Itoa(i) + "|" + string(pad)
	}

	// The consumers' ledgers are allocated before the heap baseline, so
	// live_heap_mb leaves them out. Each measures at most to-from latencies.
	var received atomic.Int64
	consumers := make([]*consumer, tcpClients)
	for i := range consumers {
		consumers[i] = &consumer{idx: i, gen: gen, measured: [2]int{from, to}, received: &received,
			got: make([]uint8, total), latencyMs: make([]float64, 0, to-from)}
		if tr != nil {
			consumers[i].spans = make([]int64, total)
		}
	}

	heap0 := liveHeapMB()
	setupStart := time.Now()
	lb, err := nettransport.NewLoopback(nettransport.Options{Interval: tcpInterval, Seed: seed})
	if err != nil {
		return it, fmt.Errorf("tcp-publish: %w", err)
	}
	var substrate sim.Transport = lb
	if tr != nil {
		tr.cap = &capture{limit: tcpCapture}
		substrate = tracedTransport{lb, tr}
	}
	sys := sspubsub.NewSystem(sspubsub.Options{Interval: tcpInterval, Seed: seed, Transport: substrate})
	var closeOnce sync.Once
	var wg sync.WaitGroup
	stop := func() {
		closeOnce.Do(sys.Close)
		wg.Wait() // consumers exit once Close closes their channels
	}
	defer stop()

	subs := make([]*sspubsub.Subscription, tcpClients)
	for i := range consumers {
		c, err := sys.NewClient(fmt.Sprintf("c%02d", i))
		if err != nil {
			return it, fmt.Errorf("tcp-publish: %w", err)
		}
		gen.clients = append(gen.clients, c)
		subs[i] = c.Subscribe(tcpTopic)
		wg.Add(1)
		go func(c *consumer, events <-chan sspubsub.Publication) {
			defer wg.Done()
			c.loop(events)
		}(consumers[i], subs[i].Events())
	}
	if !sys.WaitStable(tcpTopic, tcpClients, 20*time.Second) {
		it.attempted, it.failed = tcpClients, tcpClients
		return it, fmt.Errorf("tcp-publish: topic not stable with %d members within 20s", tcpClients)
	}
	if err := gen.run(0, warm); err != nil {
		return it, fmt.Errorf("tcp-publish: %w", err)
	}
	it.setupS = time.Since(setupStart).Seconds()

	// Measured phase: the load from lead-in to cool-down plus the drain of
	// the messages it caused. Quiesce brackets it: timeouts pause and every mailbox and
	// socket drains, so the ledgers can be reset and read race-free.
	if !lb.Quiesce(tcpDrain, func() {
		if tr != nil {
			tr.reset()
			tr.cap.reset()
		}
	}) {
		return it, fmt.Errorf("tcp-publish: transport did not quiesce after warm-up")
	}
	rt0 := readRuntime()
	cpu0 := cpuSeconds()
	types0 := declaredTypeCounts(lb)
	delivered0 := lb.Delivered()
	dropped0 := lb.Runtime().Dropped()
	lost0, garbage0 := lb.LostFrames(), lb.GarbageFrames()
	windowStart := time.Now()
	if err := gen.run(warm, total); err != nil {
		return it, fmt.Errorf("tcp-publish: %w", err)
	}
	var lt layerTotals
	if !lb.Quiesce(tcpDrain, func() {
		if tr != nil {
			lt = tr.totals()
		}
	}) {
		return it, fmt.Errorf("tcp-publish: transport did not quiesce after the load window")
	}
	window := time.Since(windowStart)
	it.cpuS = cpuSeconds() - cpu0
	rt1 := readRuntime()
	delivered := lb.Delivered() - delivered0
	types1 := declaredTypeCounts(lb)

	want := int64(total * tcpClients)
	deadline := time.Now().Add(tcpDrain)
	for received.Load() < want && time.Now().Before(deadline) {
		time.Sleep(tcpInterval)
	}
	it.heapMB = liveHeapMB() - heap0
	var subDropped int64
	for _, s := range subs {
		subDropped += s.Dropped()
	}
	lost, garbage := lb.LostFrames()-lost0, lb.GarbageFrames()-garbage0
	runtimeDropped := lb.Runtime().Dropped() - dropped0
	stop()

	// Oracle: every subscriber got every payload exactly once.
	it.attempted = want
	var lat []float64
	for _, c := range consumers {
		for id, n := range c.got {
			if n != 1 {
				it.failed++
				if it.failed == 1 {
					it.notes = append(it.notes, fmt.Sprintf("first failure: client %d got payload %d %d times", c.idx, id, n))
				}
			}
		}
		lat = append(lat, c.latencyMs...)
	}
	if it.failed > 0 || subDropped > 0 {
		return it, fmt.Errorf("tcp-publish: %d of %d deliveries missing or duplicated, %d events dropped by Events buffers (%s)",
			it.failed, want, subDropped, strings.Join(it.notes, "; "))
	}
	it.msPerRound = float64(tcpInterval) / float64(time.Millisecond)
	for i := range lat {
		lat[i] /= it.msPerRound
	}
	it.setLatency(lat)
	it.msgsPerSubRound = float64(delivered) / tcpClients / (float64(window) / float64(tcpInterval))
	lateMax, lateP99 := lateness(gen.sched[from:to], gen.actual[from:to])
	it.notes = append(it.notes, fmt.Sprintf("load generator lateness: max %.3f ms, p99 %.3f ms", lateMax, lateP99))

	if tr != nil {
		it.layer = protocolLayers(lt)
		handlerS := seconds(lt.handlerNs() + lt.sendNs)
		it.layer["concurrent.handler_s"] = handlerS
		it.layer["concurrent.busy_ratio"] = handlerS / window.Seconds()
		it.layer["concurrent.delivered"] = float64(delivered)
		it.layer["concurrent.dropped"] = float64(runtimeDropped)
		it.layer["nettransport.send_calls"] = float64(lt.sendCalls)
		it.layer["nettransport.send_s"] = seconds(lt.sendNs)
		it.layer["nettransport.lost_frames"] = float64(lost)
		it.layer["nettransport.garbage_frames"] = float64(garbage)
		acquired, released := lb.SlabStats()
		it.layer["nettransport.slabs_outstanding"] = float64(acquired - released)
		it.layer["sub.dropped"] = float64(subDropped)
		it.layer["loadgen.late_max_ms"] = lateMax
		it.layer["loadgen.late_p99_ms"] = lateP99
		addRuntimeDelta(it.layer, rt0, rt1)
		addTypeDelta(it.layer, types0, types1) // live sends: counted, but not exact
		var db, trie uint64
		for _, h := range tr.handlers {
			switch h := h.(type) {
			case *supervisor.Supervisor:
				for _, t := range h.Topics() {
					db += h.MemoryBytes(t)
				}
			case *core.Client:
				for _, t := range h.Topics() {
					if in, ok := h.Instance(t); ok {
						trie += in.Eng.Trie().MemoryBytes()
					}
				}
			}
		}
		it.layer["supervisor.db_bytes"] = float64(db)
		it.layer["trie.bytes_per_sub"] = float64(trie) / tcpClients
		cost := replayCodec(tr.cap.msgs)
		it.layer["wire.encode_ns_per_msg"] = cost.encodeNs
		it.layer["wire.decode_ns_per_msg"] = cost.decodeNs
		it.layer["wire.bytes_per_msg"] = cost.bytes
		it.notes = append(it.notes, cost.lines...)
		it.spans = publicationSpans(gen, consumers, from, to, windowStart.UnixNano())
	}
	return it, nil
}

// pubSpan is one publication's trace: from its Publish call to each
// subscriber's delivery, in µs.
type pubSpan struct {
	ID        int     `json:"id"`
	PublishUs float64 `json:"publish_us"` // Publish call, from the window start
	DeliverUs []int64 `json:"deliver_us"` // per subscriber, from the Publish call
}

func publicationSpans(gen *loadGen, consumers []*consumer, from, to int, originNs int64) []pubSpan {
	out := make([]pubSpan, 0, to-from)
	for id := from; id < to; id++ {
		sp := pubSpan{ID: id, PublishUs: float64(gen.callNs[id]-originNs) / 1e3, DeliverUs: make([]int64, len(consumers))}
		for i, c := range consumers {
			sp.DeliverUs[i] = (c.spans[id] - gen.callNs[id]) / 1e3
		}
		out = append(out, sp)
	}
	return out
}

// declaredTypeCounts reads the live transport's send counts for every
// message type the per-layer report lists (it has no list of its own).
func declaredTypeCounts(lb *nettransport.Transport) map[string]int64 {
	out := make(map[string]int64)
	for _, m := range perLayer {
		if name, ok := strings.CutPrefix(m.name, "msgs."); ok {
			out[name] = lb.CountByType(name)
		}
	}
	return out
}
