package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"sspubsub/internal/baseline"
	"sspubsub/internal/cluster"
	"sspubsub/internal/core"
	"sspubsub/internal/ordering"
	"sspubsub/internal/proto"
	"sspubsub/internal/psim"
	"sspubsub/internal/sim"
)

// sim-churn: clients spread over several topics on cluster.Live, driven by
// psim with one worker. Set-up joins everyone and seeds each topic with a
// publication history; the measured phase is rounds of unsubscribes,
// re-joins to a random topic and publications, then the run continues until
// every topic is legitimate and every member holds its topic's whole
// publication set.
const (
	churnClients  = 512
	churnTopics   = 4
	churnHistory  = 48 // publications seeded per topic during set-up
	churnRounds   = 150
	churnLeaves   = 4 // unsubscribes per round
	churnJoins    = 4 // re-joins per round
	churnPubs     = 2 // publications per round
	churnPayloadB = 48
)

type phase int

const (
	joining phase = iota
	member
	leaving
	departed
)

type memberKey struct {
	id sim.NodeID
	t  sim.Topic
}

// churnOracle is the reference model: baseline.Broker keeps the map of
// topic → subscriber set, and pubs the set of publications each topic
// has ever seen. Every member of a converged topic must hold exactly that
// set.
type churnOracle struct {
	broker *baseline.Broker
	pubs   map[sim.Topic]map[string]bool
}

func (o *churnOracle) subscribe(id sim.NodeID, t sim.Topic) {
	o.broker.OnMessage(&recordCtx{}, sim.Message{From: id, Topic: t, Body: baseline.BSubscribe{}})
}

func (o *churnOracle) unsubscribe(id sim.NodeID, t sim.Topic) {
	o.broker.OnMessage(&recordCtx{}, sim.Message{From: id, Topic: t, Body: baseline.BUnsubscribe{}})
}

// members asks the broker whom a publication on t would reach.
func (o *churnOracle) members(t sim.Topic) []sim.NodeID {
	rec := &recordCtx{}
	o.broker.OnMessage(rec, sim.Message{From: sim.None, Topic: t, Body: baseline.BPublish{}})
	sort.Slice(rec.to, func(i, j int) bool { return rec.to[i] < rec.to[j] })
	return rec.to
}

// recordCtx is the context the oracle broker runs in: it records the
// recipients of the broker's sends.
type recordCtx struct{ to []sim.NodeID }

func (c *recordCtx) Self() sim.NodeID                       { return sim.None }
func (c *recordCtx) Send(to sim.NodeID, _ sim.Topic, _ any) { c.to = append(c.to, to) }
func (c *recordCtx) Rand() *rand.Rand                       { return nil }
func (c *recordCtx) Now() float64                           { return 0 }

type simChurn struct {
	eng   *psim.Engine
	live  *cluster.Live
	or    churnOracle
	ids   []sim.NodeID
	topic map[sim.NodeID]sim.Topic
	phase map[sim.NodeID]phase
	// joined records every topic a client ever joined. A client re-joins
	// only topics it has never been in: a departed instance keeps storing
	// (and reporting) residual publications until the re-join command
	// replaces it, and that overlap is not observable from outside.
	joined map[sim.NodeID]map[sim.Topic]bool
	runNs  int64

	// Delivery ledger: per (member, topic) incarnation the payloads
	// delivered, when the incarnation joined, and publication times.
	got      map[memberKey]map[string]bool
	joinedAt map[memberKey]float64
	pubAt    map[string]float64
	dups     int64
	latency  []float64
}

func (c *simChurn) runRound() {
	start := nanotime()
	c.eng.RunRounds(1)
	c.runNs += nanotime() - start
}

func (c *simChurn) onDeliver(node sim.NodeID, t sim.Topic, p proto.Publication, _ ordering.Meta) {
	if t != c.topic[node] || c.phase[node] == departed {
		return // residue reaching an instance that has left
	}
	now := c.eng.Now()
	k := memberKey{node, t}
	set := c.got[k]
	if set == nil {
		set = make(map[string]bool)
		c.got[k] = set
	}
	if set[p.Payload] {
		c.dups++
		return
	}
	set[p.Payload] = true
	if node == p.Origin {
		c.pubAt[p.Payload] = now
		return
	}
	if at, ok := c.pubAt[p.Payload]; ok && c.joinedAt[k] <= at {
		c.latency = append(c.latency, now-at)
	}
}

func (c *simChurn) join(id sim.NodeID, t sim.Topic) {
	if c.joined[id] == nil {
		c.joined[id] = make(map[sim.Topic]bool)
	}
	c.joined[id][t] = true
	c.joinedAt[memberKey{id, t}] = c.eng.Now()
	c.topic[id] = t
	c.phase[id] = joining
	c.or.subscribe(id, t)
	c.live.Join(id, t)
}

func (c *simChurn) publish(id sim.NodeID, payload string) {
	t := c.topic[id]
	c.or.pubs[t][payload] = true
	c.live.Publish(id, t, payload)
}

// advance moves clients whose join or leave completed to their next phase
// and reports how many operations are still in flight.
func (c *simChurn) advance() (inFlight int) {
	for _, id := range c.ids {
		cl := c.live.Clients[id]
		switch c.phase[id] {
		case joining:
			if cl.Labelled(c.topic[id]) {
				c.phase[id] = member
			} else {
				inFlight++
			}
		case leaving:
			if cl.Departed(c.topic[id]) {
				c.phase[id] = departed
			} else {
				inFlight++
			}
		}
	}
	return inFlight
}

// settled reports whether every topic is legitimate with exactly the
// oracle's members, each holding exactly the oracle's publication set.
// The cheap checks run first: this is polled every round.
func (c *simChurn) settled() bool {
	if c.advance() > 0 {
		return false
	}
	for _, id := range c.ids {
		if c.phase[id] == member && c.live.Clients[id].PublicationCount(c.topic[id]) != len(c.or.pubs[c.topic[id]]) {
			return false
		}
	}
	for t := sim.Topic(1); t <= churnTopics; t++ {
		if !c.live.ConvergedWith(t, c.or.broker.Subscribers(t)) {
			return false
		}
	}
	return true
}

func payload(rng *rand.Rand, tag string) string {
	b := make([]byte, churnPayloadB)
	for i := range b {
		b[i] = 'a' + byte(rng.Intn(26))
	}
	return tag + "-" + string(b)
}

// pick removes and returns up to k random elements of ids (sorted input,
// so the choice depends only on the seed).
func pick(rng *rand.Rand, ids []sim.NodeID, k int) []sim.NodeID {
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	if k > len(ids) {
		k = len(ids)
	}
	return ids[:k]
}

// newTopics returns the topics a client has never joined.
func (c *simChurn) newTopics(id sim.NodeID) []sim.Topic {
	var out []sim.Topic
	for t := sim.Topic(1); t <= churnTopics; t++ {
		if !c.joined[id][t] {
			out = append(out, t)
		}
	}
	return out
}

func (c *simChurn) inPhase(p phase) []sim.NodeID {
	var out []sim.NodeID
	for _, id := range c.ids {
		if c.phase[id] == p {
			out = append(out, id)
		}
	}
	return out
}

// runSimChurn executes one sim-churn iteration.
func runSimChurn(seed int64, tr *tracer) (*iteration, error) {
	rng := rand.New(rand.NewSource(seed))
	it := newIteration()

	// The latency samples outlive the heap reading, so they are allocated
	// before its baseline; every publication reaches each client at most
	// once, which bounds them. The rest of the ledger is dropped before the
	// reading.
	latency := make([]float64, 0, (churnTopics*churnHistory+churnRounds*churnPubs)*churnClients)
	heap0 := liveHeapMB()
	setupStart := time.Now()
	c := &simChurn{
		latency:  latency,
		eng:      psim.New(psim.Options{Seed: seed, Workers: 1}),
		or:       churnOracle{broker: baseline.NewBroker(), pubs: make(map[sim.Topic]map[string]bool)},
		topic:    make(map[sim.NodeID]sim.Topic),
		phase:    make(map[sim.NodeID]phase),
		joined:   make(map[sim.NodeID]map[sim.Topic]bool),
		got:      make(map[memberKey]map[string]bool),
		joinedAt: make(map[memberKey]float64),
		pubAt:    make(map[string]float64),
	}
	defer c.eng.Close()
	var substrate sim.Transport = c.eng
	if tr != nil {
		substrate = tracedTransport{c.eng, tr}
	}
	c.live = cluster.NewLiveRF(substrate, core.Options{OnDeliverTrace: c.onDeliver}, 1, 0)
	supervisorID := c.live.Sup.ID()
	for t := sim.Topic(1); t <= churnTopics; t++ {
		c.or.pubs[t] = make(map[string]bool)
	}
	c.ids = c.live.AddClients(churnClients)
	for i, id := range c.ids {
		c.join(id, sim.Topic(1+i%churnTopics))
	}
	it.attempted += churnClients
	if _, ok := runUntil(c.runRound, func() bool { return c.advance() == 0 }); !ok {
		it.failed += int64(c.advance())
		return it, fmt.Errorf("sim-churn: %d joins incomplete after %d rounds", c.advance(), maxRounds)
	}
	n := 0
	for t := sim.Topic(1); t <= churnTopics; t++ {
		for i := 0; i < churnHistory; i++ {
			members := c.live.Members(t)
			c.publish(members[rng.Intn(len(members))], payload(rng, fmt.Sprintf("h%d", n)))
			n++
		}
	}
	if _, ok := runUntil(c.runRound, c.settled); !ok {
		it.failed++
		return it, fmt.Errorf("sim-churn: set-up did not converge in %d rounds", maxRounds)
	}
	it.setupS = time.Since(setupStart).Seconds()

	// Measured phase: churn, then convergence.
	if tr != nil {
		tr.reset()
		c.runNs = 0
	}
	rt0 := readRuntime()
	cpu0 := cpuSeconds()
	delivered0 := c.eng.Delivered()
	dropped0 := c.eng.Dropped()
	types0 := countsByType(c.eng)
	supSent0 := c.eng.SentBy(supervisorID)
	round0 := c.eng.Now()
	c.latency = c.latency[:0]
	ops := 0
	for r := 0; r < churnRounds; r++ {
		c.advance()
		var rejoin []sim.NodeID
		for _, id := range c.inPhase(departed) {
			if len(c.newTopics(id)) > 0 {
				rejoin = append(rejoin, id)
			}
		}
		for _, id := range pick(rng, rejoin, churnJoins) {
			topics := c.newTopics(id)
			c.join(id, topics[rng.Intn(len(topics))])
			ops++
		}
		members := c.inPhase(member)
		for _, id := range pick(rng, members, churnLeaves) {
			c.phase[id] = leaving
			c.or.unsubscribe(id, c.topic[id])
			c.live.Leave(id, c.topic[id])
			ops++
		}
		for _, id := range pick(rng, members[churnLeaves:], churnPubs) {
			c.publish(id, payload(rng, fmt.Sprintf("p%d", n)))
			n++
		}
		c.runRound()
	}
	supSent := c.eng.SentBy(supervisorID) - supSent0
	converge, ok := runUntil(c.runRound, c.settled)
	it.cpuS = cpuSeconds() - cpu0
	rt1 := readRuntime()
	rounds := c.eng.Now() - round0
	it.attempted += int64(ops)
	if !ok {
		it.failed += int64(c.advance())
		return it, fmt.Errorf("sim-churn: not converged %d rounds after churn", maxRounds)
	}
	if err := c.check(it); err != nil {
		return it, err
	}

	subs := 0
	for t := sim.Topic(1); t <= churnTopics; t++ {
		subs += c.or.broker.Subscribers(t)
	}
	// The benchmark's ledger and oracle are not the system's heap.
	c.got, c.pubAt, c.joinedAt, c.or = nil, nil, nil, churnOracle{}
	it.heapMB = liveHeapMB() - heap0
	runtime.KeepAlive(c)
	it.setLatency(c.latency)
	it.addExactLatency()
	it.msgsPerSubRound = float64(c.eng.Delivered()-delivered0) / float64(subs) / rounds
	it.exact["msgs_per_sub_round"] = it.msgsPerSubRound
	it.exact["converge_rounds"] = float64(converge)
	it.exact["sup_msgs_per_op"] = float64(supSent) / float64(ops)
	addTypeDelta(it.exact, types0, countsByType(c.eng))

	if tr != nil {
		lt := tr.totals()
		it.layer = protocolLayers(lt)
		addEngineLayer(it.layer, lt, c.runNs, c.eng.Delivered()-delivered0+lt.nodeTimeouts)
		it.layer["psim.queue_hw_bytes"] = float64(c.eng.QueueHighWaterBytes())
		it.layer["psim.dropped"] = float64(c.eng.Dropped() - dropped0)
		var db, trie uint64
		for t := sim.Topic(1); t <= churnTopics; t++ {
			db += c.live.Sup.MemoryBytes(t)
			for _, id := range c.live.Members(t) {
				if in, ok := c.live.Clients[id].Instance(t); ok {
					trie += in.Eng.Trie().MemoryBytes()
				}
			}
		}
		it.layer["supervisor.db_bytes"] = float64(db)
		it.layer["trie.bytes_per_sub"] = float64(trie) / float64(subs)
		addRuntimeDelta(it.layer, rt0, rt1)
	}
	return it, nil
}

// check compares the converged system with the oracle: the same members
// per topic, every member holding exactly its topic's publication set,
// each delivered once to the member's current subscription.
func (c *simChurn) check(it *iteration) error {
	if c.dups > 0 {
		it.failed += c.dups
		return fmt.Errorf("sim-churn: %d duplicate deliveries", c.dups)
	}
	for t := sim.Topic(1); t <= churnTopics; t++ {
		want := c.or.members(t)
		got := c.live.Members(t)
		if fmt.Sprint(want) != fmt.Sprint(got) {
			it.failed++
			return fmt.Errorf("sim-churn: topic %d members %v, oracle %v", t, got, want)
		}
		for _, id := range got {
			it.attempted++
			pubs := c.live.Clients[id].Publications(t)
			delivered := c.got[memberKey{id, t}]
			if len(pubs) != len(c.or.pubs[t]) || len(delivered) != len(c.or.pubs[t]) {
				it.failed++
				return fmt.Errorf("sim-churn: member %d of topic %d holds %d publications, got %d deliveries, oracle has %d",
					id, t, len(pubs), len(delivered), len(c.or.pubs[t]))
			}
			for _, p := range pubs {
				if !c.or.pubs[t][p.Payload] || !delivered[p.Payload] {
					it.failed++
					return fmt.Errorf("sim-churn: member %d of topic %d holds %q, not in the oracle's set or never delivered", id, t, p.Payload)
				}
			}
		}
	}
	return nil
}
