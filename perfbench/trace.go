package main

import (
	"math/rand"
	"sync"
	"time"

	"sspubsub/internal/scale"
	"sspubsub/internal/sim"
	"sspubsub/internal/supervisor"
)

// The tracer measures each protocol layer from outside the program: it
// wraps the seams the layers already expose (sim.Handler, sim.Context,
// sim.Transport) and counts and times every call into OnMessage,
// OnTimeout and Send. It keeps counts and self time per node in memory;
// no individual spans, because one sim-scale round makes ~10^4 handler
// calls. The wrappers forward every call unchanged (including Rand), so a
// traced run executes the same schedule as an untraced one; the benchmark
// checks this by comparing their exact counts.

var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

type nodeKind int

const (
	kindSubscriber nodeKind = iota // core.Client or scale.Pool
	kindSupervisor
)

// pubsubTypes are the publication-layer message types (internal/pubsub and
// its trie anti-entropy). Everything else a subscriber handles belongs to
// the overlay and configuration layer (internal/core).
var pubsubTypes = map[string]bool{
	"proto.CheckTrie":       true,
	"proto.CheckAndPublish": true,
	"proto.PublishBatch":    true,
	"proto.PublishNew":      true,
	"core.PublishCmd":       true,
}

type span struct {
	calls int64
	ns    int64
}

// nodeStats is one traced node's ledger. It is written only by the
// goroutine executing that node's handler (one per node on the live
// runtime, the single driver goroutine on psim with one worker) and read
// after the system stops.
type nodeStats struct {
	kind         nodeKind
	timeout      span
	ticks        int64 // timeout events executed for this node
	subTimeouts  int64 // virtual subscriber timeouts (a pool drives many)
	msg          span  // overlay/configuration messages
	pub          span  // publication-layer messages
	sup          span  // supervisor calls, messages and timeouts
	send         span
	sentCore     int64
	sentPub      int64
	sentSup      int64
	sendNsInCall int64 // send time nested in the handler call executing now
}

func (st *nodeStats) countSend(body any, ns int64) {
	st.send.calls++
	st.send.ns += ns
	st.sendNsInCall += ns
	switch {
	case st.kind == kindSupervisor:
		st.sentSup++
	case pubsubTypes[sim.TypeName(body)]:
		st.sentPub++
	default:
		st.sentCore++
	}
}

// tracer owns every node ledger of one traced system.
type tracer struct {
	mu    sync.Mutex
	nodes []*nodeStats
	cap   *capture // non-nil: record sent messages for the codec replay
	// handlers are the unwrapped handlers registered through a
	// tracedTransport, for reading layer state (database and trie sizes)
	// after the run.
	handlers []sim.Handler
}

func newTracer() *tracer { return &tracer{} }

func (t *tracer) newNode(k nodeKind) *nodeStats {
	st := &nodeStats{kind: k}
	t.mu.Lock()
	t.nodes = append(t.nodes, st)
	t.mu.Unlock()
	return st
}

// reset zeroes every ledger (the start of a measured phase).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, st := range t.nodes {
		*st = nodeStats{kind: st.kind}
	}
}

// layerTotals sums the ledgers into per-layer counts and self times.
type layerTotals struct {
	timeoutCalls, timeoutNs int64
	msgCalls, msgNs         int64
	pubCalls, pubNs         int64
	supCalls, supNs         int64
	sendCalls, sendNs       int64
	sentCore, sentPub       int64
	sentSup                 int64
	nodeTimeouts            int64 // timeout events the engine executed
}

func (t *tracer) totals() layerTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	var lt layerTotals
	for _, st := range t.nodes {
		lt.timeoutCalls += st.subTimeouts
		lt.timeoutNs += st.timeout.ns
		lt.nodeTimeouts += st.ticks
		lt.msgCalls += st.msg.calls
		lt.msgNs += st.msg.ns
		lt.pubCalls += st.pub.calls
		lt.pubNs += st.pub.ns
		lt.supCalls += st.sup.calls
		lt.supNs += st.sup.ns
		lt.sendCalls += st.send.calls
		lt.sendNs += st.send.ns
		lt.sentCore += st.sentCore
		lt.sentPub += st.sentPub
		lt.sentSup += st.sentSup
	}
	return lt
}

// handlerNs is the self time of all handlers (sends excluded).
func (lt layerTotals) handlerNs() int64 { return lt.timeoutNs + lt.msgNs + lt.pubNs + lt.supNs }

// wrap returns h instrumented against st. pool, when non-nil, is the
// scale.Pool behind h: one pool timeout drives every live virtual
// subscriber, and the ledger counts those.
func (t *tracer) wrap(h sim.Handler, st *nodeStats, pool *scale.Pool) sim.Handler {
	th := &tracedHandler{h: h, st: st, pool: pool}
	th.ctx.st = st
	th.ctx.cap = t.cap
	return th
}

type tracedHandler struct {
	h    sim.Handler
	st   *nodeStats
	pool *scale.Pool
	ctx  tracedCtx
}

func (th *tracedHandler) OnMessage(ctx sim.Context, m sim.Message) {
	st := th.st
	th.ctx.inner = ctx
	st.sendNsInCall = 0
	start := nanotime()
	th.h.OnMessage(&th.ctx, m)
	self := nanotime() - start - st.sendNsInCall
	switch {
	case st.kind == kindSupervisor:
		st.sup.calls++
		st.sup.ns += self
	case pubsubTypes[sim.TypeName(m.Body)]:
		st.pub.calls++
		st.pub.ns += self
	default:
		st.msg.calls++
		st.msg.ns += self
	}
}

func (th *tracedHandler) OnTimeout(ctx sim.Context) {
	st := th.st
	th.ctx.inner = ctx
	st.sendNsInCall = 0
	subs := int64(1)
	if th.pool != nil {
		subs = int64(th.pool.Live())
	}
	start := nanotime()
	th.h.OnTimeout(&th.ctx)
	self := nanotime() - start - st.sendNsInCall
	st.ticks++
	if st.kind == kindSupervisor {
		st.sup.calls++
		st.sup.ns += self
		return
	}
	st.timeout.calls++
	st.timeout.ns += self
	st.subTimeouts += subs
}

// tracedCtx forwards to the engine's context and times every Send.
type tracedCtx struct {
	inner sim.Context
	st    *nodeStats
	cap   *capture
}

func (c *tracedCtx) Self() sim.NodeID { return c.inner.Self() }
func (c *tracedCtx) Send(to sim.NodeID, topic sim.Topic, body any) {
	start := nanotime()
	c.inner.Send(to, topic, body)
	c.st.countSend(body, nanotime()-start)
	if c.cap != nil {
		c.cap.add(sim.Message{To: to, From: c.inner.Self(), Topic: topic, Body: body})
	}
}
func (c *tracedCtx) Rand() *rand.Rand { return c.inner.Rand() }
func (c *tracedCtx) Now() float64     { return c.inner.Now() }

// tracedTransport instruments every handler registered through it, with a
// fresh ledger per node. Driver sends (join, leave and publish commands)
// pass through uncounted: they are the workload, not a layer.
type tracedTransport struct {
	sim.Transport
	t *tracer
}

func (w tracedTransport) AddNode(id sim.NodeID, h sim.Handler) {
	k := kindSubscriber
	if _, ok := h.(*supervisor.Supervisor); ok {
		k = kindSupervisor
	}
	w.t.mu.Lock()
	w.t.handlers = append(w.t.handlers, h)
	w.t.mu.Unlock()
	w.Transport.AddNode(id, w.t.wrap(h, w.t.newNode(k), nil))
}

// poolSubstrate registers one scale.Pool's node with its ledger; the
// pool's virtual listeners pass through to the engine.
type poolSubstrate struct {
	scale.Substrate
	t    *tracer
	st   *nodeStats
	pool *scale.Pool
}

func (s poolSubstrate) AddNode(id sim.NodeID, h sim.Handler) {
	s.Substrate.AddNode(id, s.t.wrap(h, s.st, s.pool))
}

// poolSender is the transport a scale.Pool sends through: a pool routes
// its virtual subscribers' messages via Transport.Send, not its Context.
type poolSender struct {
	sim.Transport
	st *nodeStats
}

func (s poolSender) Send(m sim.Message) {
	start := nanotime()
	s.Transport.Send(m)
	s.st.countSend(m.Body, nanotime()-start)
}

// capture records sent messages, up to a limit, for the codec replay.
type capture struct {
	mu    sync.Mutex
	limit int
	msgs  []sim.Message
}

func (c *capture) add(m sim.Message) {
	c.mu.Lock()
	if len(c.msgs) < c.limit {
		c.msgs = append(c.msgs, m)
	}
	c.mu.Unlock()
}

func (c *capture) reset() {
	c.mu.Lock()
	c.msgs = c.msgs[:0]
	c.mu.Unlock()
}
