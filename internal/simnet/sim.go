// Package simnet is a deterministic discrete-event network simulator. It
// substitutes for the paper's AWS WAN/LAN deployment: replicas are
// event-driven state machines, messages are events scheduled on a virtual
// clock with delays drawn from a configurable latency model (4-region WAN
// or single-site LAN) as base plus jitter, a per-node egress scale models
// stragglers, and a NIC egress queue (SetNICBps) is the one place a
// message's size costs time. The network is a delay model and nothing
// else: crashed endpoints and cut links are package faultnet's decorator,
// which wraps this network the same way it wraps the real transports.
//
// Determinism: events at equal virtual times are processed in the
// canonical order (destination node, source node, per-source count) — a
// tie-break that is a pure function of the workload, not of the order in
// which the queue happened to receive the events — and all randomness
// flows through seeded generators, so every experiment is exactly
// reproducible.
//
// Scheduling: the event queue is an O(1)-amortized calendar/timing-wheel
// queue (wheel.go); the original binary min-heap survives as the
// reference implementation (heap.go, QueueHeap) that the differential
// property tests compare the wheel against. Both pop in the identical
// total order (at, ord), so results never depend on the choice.
//
// Allocation model: events are pooled (an event is owned by the queue until
// its callback returns, then zeroed back into the pool) and deliveries are
// event fields, not closures, so a steady-state simulation allocates no
// event objects; property_test.go enforces the contract.
package simnet

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/types"
)

// Time is virtual time in nanoseconds since simulation start. The type
// lives in package types so the replica state machines can name it without
// importing the simulator.
type Time = types.Time

// Duration re-exports time.Duration for readability at call sites.
type Duration = time.Duration

// event is one scheduled callback. Exactly one of the two callback forms
// is set: call (a function pointer with two operands — plain closures ride
// in the operands, which hold func and pointer values without boxing
// allocations) or nw (a network delivery encoded as fields). Events are
// pooled: Step releases an event back to the simulator's free list after
// its callback returns, zeroing every field first. The struct is laid out
// to keep a popped event's queue links and ordering key on its first cache
// line, and the whole event in two.
type event struct {
	at  Time
	ord uint64

	// next, skip and runTail chain events inside one timing-wheel bucket
	// (wheel.go): the wheel queues pooled events intrusively, so
	// scheduling allocates no container nodes at all. next links the full
	// (at, ord) order; skip links the heads of same-timestamp runs (the
	// lanes) so an insert hops over a lane in one step; runTail, on a
	// lane's head, points at its last member for O(1) lane appends. All
	// three are owned by the queue and nil outside it. They sit next to
	// the ordering key so the queue's pop/insert path touches one cache
	// line of a cold event.
	next    *event
	skip    *event
	runTail *event

	// Closure-free callback: call(argA, argB). Used for hot-path events
	// (message deliveries to replicas, client submissions, timer wakeups)
	// where a closure per event would dominate the allocation profile.
	call       func(a, b any)
	argA, argB any

	// Network delivery: when nw is non-nil the event delivers msg from ->
	// to through nw's handler table.
	nw       *Network
	from, to int32
	msg      any
}

// The canonical tie-break key. Events at equal virtual times execute in
// (dst, src, cnt) order: dst is the node the event targets (its affinity —
// the node whose state the callback touches), src is the node whose event
// scheduled it, and cnt is a per-source counter. The key is a pure
// function of the simulated workload — node i's k-th scheduling call
// produces the same key however the calls of independent nodes
// interleave — which is what every committed artifact's bytes rest on.
// Node -1 (NodeNone)
// is the global affinity: events scheduled outside any node context
// (setup code, scenario timelines, measurement ticks); it sorts before
// every real node at equal times, preserving the convention that
// timeline mutations apply before same-instant deliveries.
//
// Packing: dst and src ride as node+1 in 15 bits each, cnt in 34 bits
// (a single source schedules < 2^34 events per run; the scheduler panics
// on overflow rather than wrapping the order).
const (
	// NodeNone is the global affinity: no owning node.
	NodeNone = -1

	ordNodeBits = 15
	ordCntBits  = 34
	ordNodeMax  = 1<<ordNodeBits - 2 // ids are packed as node+1
	ordCntMax   = 1<<ordCntBits - 1
)

// makeOrd packs the canonical tie-break key.
func makeOrd(dst, src int, cnt uint64) uint64 {
	return uint64(dst+1)<<(ordNodeBits+ordCntBits) | uint64(src+1)<<ordCntBits | cnt
}

// ordDst unpacks the destination affinity (NodeNone for global events).
func ordDst(ord uint64) int {
	return int(ord>>(ordNodeBits+ordCntBits)) - 1
}

// runFunc adapts a plain closure to the two-operand callback form (the
// func value rides in argA; pointer-shaped, so no boxing allocation).
func runFunc(a, _ any) { a.(func())() }

// QueueKind selects the scheduler's event-queue implementation at Sim
// construction.
type QueueKind int

// The two queue implementations. QueueWheel is the default: an
// O(1)-amortized calendar/timing-wheel queue (wheel.go). QueueHeap is the
// original binary min-heap, retained as the reference implementation for
// the differential property tests and available for cross-checking runs.
const (
	QueueWheel QueueKind = iota
	QueueHeap
)

// Sim is the discrete-event engine.
type Sim struct {
	now  Time
	q    eventQueue
	pool []*event // free list of released events
	seed int64    // seeds each Network's per-link jitter streams
	// cur is the affinity of the currently executing event (NodeNone
	// between events and during setup). Scheduling calls without an
	// explicit destination inherit it as both halves of the canonical key.
	cur int
	// ordCnt holds the per-source schedule counters behind the canonical
	// tie-break, indexed by node+1 and grown on demand.
	ordCnt []uint64
	events uint64 // total events processed, for accounting
	halted bool
}

// New creates a simulator whose networks draw their jitter from seed,
// backed by the default timing-wheel queue.
func New(seed int64) *Sim {
	return NewWithQueue(seed, QueueWheel)
}

// NewWithQueue creates a simulator backed by the given queue
// implementation. Both implementations pop events in the identical total
// order (at, ord) — pinned by the differential property tests — so results
// never depend on the choice; only performance does.
func NewWithQueue(seed int64, kind QueueKind) *Sim {
	var q eventQueue
	if kind == QueueHeap {
		q = &heapQueue{}
	} else {
		q = newWheelQueue()
	}
	return &Sim{q: q, seed: seed, cur: NodeNone}
}

// Reset returns the simulator to its just-constructed state — clock at
// zero, no queued events, counters cleared, seed replaced — while keeping
// every arena it has grown: the event free list, queue bucket capacity and
// scratch buffers all carry over. Queued events are released (zeroed) into
// the pool, so no references from the previous run survive. A reset Sim
// behaves exactly like New(seed): benchmark iterations and RunMany sweeps
// reuse one simulator per worker instead of re-growing these arenas every
// run (see cluster.Run).
func (s *Sim) Reset(seed int64) {
	s.q.forEach(func(e *event) {
		*e = event{}
		s.pool = append(s.pool, e)
	})
	s.q.reset()
	s.now = 0
	clear(s.ordCnt)
	s.cur = NodeNone
	s.events = 0
	s.halted = false
	s.seed = seed
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// EventsProcessed returns the number of events executed so far.
func (s *Sim) EventsProcessed() uint64 { return s.events }

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return s.q.len() }

// alloc takes an event from the pool (or allocates the pool's first use of
// this slot). The returned event is zeroed except for pooling bookkeeping.
func (s *Sim) alloc() *event {
	if n := len(s.pool); n > 0 {
		e := s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
		return e
	}
	return &event{}
}

// release zeroes an executed event and returns it to the pool. Zeroing
// drops references (msg payloads, closures) so the pool never keeps dead
// objects alive, and makes use-after-release observable: a released event
// that somehow re-entered the queue would order at (0, 0).
func (s *Sim) release(e *event) {
	*e = event{}
	s.pool = append(s.pool, e)
}

// nextCnt returns the next per-source schedule count for src (packed as
// src+1), growing the counter slice on demand.
func (s *Sim) nextCnt(src int) uint64 {
	idx := src + 1
	if idx >= len(s.ordCnt) {
		grown := make([]uint64, idx+8)
		copy(grown, s.ordCnt)
		s.ordCnt = grown
	}
	s.ordCnt[idx]++
	if s.ordCnt[idx] > ordCntMax {
		panic(fmt.Sprintf("simnet: node %d exceeded %d scheduled events", src, uint64(ordCntMax)))
	}
	return s.ordCnt[idx]
}

// schedule stamps (at, ord) onto e for destination affinity dst and source
// src, and pushes it on the queue, clamping past times to now.
func (s *Sim) schedule(e *event, t Time, dst, src int) {
	if t < s.now {
		t = s.now
	}
	if dst > ordNodeMax || dst < NodeNone {
		panic(fmt.Sprintf("simnet: node %d outside the schedulable range [-1,%d]", dst, ordNodeMax))
	}
	e.at = t
	e.ord = makeOrd(dst, src, s.nextCnt(src))
	s.q.push(e)
}

// At schedules fn at absolute virtual time t (clamped to now) with the
// affinity of the currently executing event (global outside any event).
func (s *Sim) At(t Time, fn func()) { s.CallAt(t, runFunc, fn, nil) }

// After schedules fn d after the current time.
func (s *Sim) After(d Duration, fn func()) { s.At(s.now+Time(d), fn) }

// CallAt schedules fn(argA, argB) at absolute virtual time t (clamped to
// now). Unlike At, a top-level fn plus pointer-shaped operands allocates
// nothing: the operands ride in the pooled event. This is the hot-path
// scheduling primitive — client submissions, analytic SB deliveries and
// consensus timer wakeups use it. The affinity is inherited from the
// currently executing event.
func (s *Sim) CallAt(t Time, fn func(a, b any), argA, argB any) {
	e := s.alloc()
	e.call, e.argA, e.argB = fn, argA, argB
	s.schedule(e, t, s.cur, s.cur)
}

// CallAfter schedules fn(argA, argB) d after the current time.
func (s *Sim) CallAfter(d Duration, fn func(a, b any), argA, argB any) {
	s.CallAt(s.now+Time(d), fn, argA, argB)
}

// Step executes the next event. It returns false when the queue is empty.
func (s *Sim) Step() bool {
	e := s.q.pop()
	if e == nil {
		return false
	}
	s.now = e.at
	s.events++
	s.dispatch(e)
	s.release(e)
	return true
}

// dispatch runs an event's callback with s.cur set to the event's
// affinity, so everything the callback schedules is stamped with the
// correct canonical source. The event is still owned by the caller
// (Step), which releases it afterwards; callbacks never see the event
// itself, so they cannot retain it past release.
func (s *Sim) dispatch(e *event) {
	s.cur = ordDst(e.ord)
	if e.nw != nil {
		e.nw.deliver(int(e.from), int(e.to), e.msg)
	} else if e.call != nil {
		e.call(e.argA, e.argB)
	}
	s.cur = NodeNone
}

// Halt stops the engine: Run and RunAll return after the event that called
// Halt, leaving queued events unprocessed and the clock where it stopped.
// Cluster runs poll a cancellation hook from a scheduled event and call
// Halt to abandon a simulation early.
func (s *Sim) Halt() { s.halted = true }

// Run executes events until the queue drains, virtual time exceeds until,
// or Halt is called from an event. The loop uses the queue's fused
// conditional pop, probing the queue once per event.
func (s *Sim) Run(until Time) {
	for !s.halted {
		e := s.q.popLE(until)
		if e == nil {
			break
		}
		s.now = e.at
		s.events++
		s.dispatch(e)
		s.release(e)
	}
	if s.now < until && !s.halted {
		s.now = until
	}
}

// RunAll executes events until the queue drains, maxEvents is reached, or
// Halt is called; maxEvents <= 0 means no limit. It returns the number of
// events executed.
func (s *Sim) RunAll(maxEvents uint64) uint64 {
	start := s.events
	for !s.halted && s.q.len() > 0 {
		if maxEvents > 0 && s.events-start >= maxEvents {
			break
		}
		s.Step()
	}
	return s.events - start
}

// NodeSim is a node-pinned view of a simulator and its types.Clock: every
// scheduling call stamps the node as destination affinity and source, even
// when armed from outside the node's own events (setup, a recovery), which
// keeps the canonical key a pure function of the workload. Build one with
// On.
type NodeSim struct {
	S    *Sim
	Node int
}

// On pins sim to node: the returned view stamps node as the destination
// affinity and source of everything scheduled through it.
func On(sim *Sim, node int) NodeSim { return NodeSim{S: sim, Node: node} }

// Now returns the current virtual time.
func (n NodeSim) Now() Time { return n.S.Now() }

// At schedules fn at absolute time t on the pinned node.
func (n NodeSim) At(t Time, fn func()) { n.CallAt(t, runFunc, fn, nil) }

// After schedules fn d after the current time on the pinned node.
func (n NodeSim) After(d Duration, fn func()) { n.At(n.S.now+Time(d), fn) }

// CallAt schedules fn(argA, argB) at absolute time t on the pinned node.
func (n NodeSim) CallAt(t Time, fn func(a, b any), argA, argB any) {
	n.CallAtNode(n.Node, t, fn, argA, argB)
}

// CallAtNode schedules fn(argA, argB) at absolute time t with an explicit
// destination affinity, keeping the pinned node as the source — the
// client's primitive for cross-node hops (submissions to replicas).
func (n NodeSim) CallAtNode(dst int, t Time, fn func(a, b any), argA, argB any) {
	e := n.S.alloc()
	e.call, e.argA, e.argB = fn, argA, argB
	n.S.schedule(e, t, dst, n.Node)
}

// Handler consumes a message delivered to a node.
type Handler = types.Handler

// Network delivers messages between registered nodes over a GeoModel.
type Network struct {
	sim      *Sim
	handlers []Handler
	// The model is read once, at NewNetwork: its JitterFrac, and its
	// per-link base delays into one flat n*n matrix, so a Send samples its
	// delay with two slice loads and one jitter draw.
	pairBase   []Duration
	jitterFrac float64
	// jit holds one counter-based jitter stream per directed link
	// (jit[from*n+to]), seeded from the run seed and the link identity.
	// Jitter is a pure function of (seed, from, to, per-link send count) —
	// not of the global event interleaving.
	jit []uint64
	// outScale multiplies all delays for messages *sent by* a node; used to
	// model a straggler whose instance runs 10x slower (Sec. VII-A).
	outScale []float64
	// nicBps, when > 0, enables the NIC model: each node has one egress
	// link of this bandwidth (bits/s) that all its sends serialize on, in
	// send order (Egress). This is what makes a leader's broadcast saturate
	// under load the way the paper's 1 Gbps interfaces do. There is no
	// receive queue: a message lands at its own arrival time.
	nicBps     float64
	egressFree []Time

	size func(msg any) int // bytes a message costs the NIC model
	msgs uint64            // messages handed to a handler, modeled ones (AddModeled) included
}

// NewNetwork creates a network for n nodes over the given latency model,
// snapshotting its per-link base delays (see Network). size is the modeled
// size in bytes a sent message is charged; nil makes every message free.
func NewNetwork(sim *Sim, n int, model *GeoModel, size func(msg any) int) *Network {
	if size == nil {
		size = func(any) int { return 0 }
	}
	nw := &Network{
		sim:        sim,
		handlers:   make([]Handler, n),
		pairBase:   make([]Duration, n*n),
		jitterFrac: model.JitterFrac,
		jit:        make([]uint64, n*n),
		outScale:   slices.Repeat([]float64{1}, n),
		size:       size,
	}
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			nw.pairBase[from*n+to] = model.base(from, to)
		}
	}
	for l := range nw.jit {
		nw.jit[l] = jitSeed(sim.seed, l)
	}
	return nw
}

// jitSeed derives the initial stream state for one directed link from the
// run seed (splitmix64 of the mixed pair; distinct links never share a
// stream).
func jitSeed(seed int64, link int) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(link+1)
	return splitmix64(&x)
}

// splitmix64 advances the state and returns the next value of the stream
// (Steele et al., the standard 64-bit mixer).
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// jitFloat draws the next uniform [0,1) sample from a link stream.
func jitFloat(state *uint64) float64 {
	return float64(splitmix64(state)>>11) / (1 << 53)
}

var _ types.Network = (*Network)(nil)

// Register installs the message handler for node id.
func (nw *Network) Register(id int, h Handler) {
	if id < 0 || id >= len(nw.handlers) {
		panic(fmt.Sprintf("simnet: register node %d out of range [0,%d)", id, len(nw.handlers)))
	}
	nw.handlers[id] = h
}

// SetOutScale sets the outgoing-delay multiplier of a node (straggler
// modeling: scale > 1 slows everything the node sends).
func (nw *Network) SetOutScale(id int, scale float64) { nw.outScale[id] = scale }

// Messages returns the count of messages delivered to a registered handler
// — one a fault decorator's wrapped handler then drops included.
func (nw *Network) Messages() uint64 { return nw.msgs }

// AddModeled folds messages that a closed-form layer models without
// simulating (the analytic SB's pre-prepare/prepare/commit traffic) into
// the delivery count, so Messages stays comparable between message-level
// and analytic runs.
func (nw *Network) AddModeled(msgs uint64) { nw.msgs += msgs }

// SetNICBps enables the NIC model with the given per-node egress
// bandwidth in bits per second (0 disables it: no message's size then
// costs time). Every send reserves its sender's egress, and so does an
// analytic-SB leader's proposal (Egress).
func (nw *Network) SetNICBps(bps float64) {
	nw.nicBps = bps
	if bps > 0 && nw.egressFree == nil {
		nw.egressFree = make([]Time, len(nw.handlers))
	}
}

// Egress reserves from's egress for copies back-to-back messages of size
// bytes handed to it now: it starts on them at start (now, or once its
// queue has drained) and copy k (from 1) has left at start + k*each.
// With the NIC model off it returns (now, 0).
func (nw *Network) Egress(from, size, copies int) (start, each Time) {
	start = nw.sim.now
	if nw.nicBps <= 0 {
		return start, 0
	}
	start = max(start, nw.egressFree[from])
	each = Time(float64(size) * 8 / nw.nicBps * 1e9)
	nw.egressFree[from] = start + Time(copies)*each
	return start, each
}

// Delay returns the modeled propagation delay from -> to, including the
// sender's straggler scaling (egress queueing is applied separately in
// Send). The jitter sample advances the per-link stream, so the k-th send
// over a link draws the same jitter however the run's events interleave.
func (nw *Network) Delay(from, to int) Duration {
	d := nw.pairBase[from*len(nw.handlers)+to]
	if jf := nw.jitterFrac; jf > 0 {
		d += Duration(jitFloat(&nw.jit[from*len(nw.handlers)+to]) * jf * float64(d))
	}
	return Duration(float64(d) * nw.outScale[from])
}

// BaseDelay returns the deterministic (jitter-free) delay from -> to,
// including the sender's straggler scaling. The analytic
// sequenced-broadcast layer uses it for closed-form quorum times.
func (nw *Network) BaseDelay(from, to int) Duration {
	return Duration(float64(nw.pairBase[from*len(nw.handlers)+to]) * nw.outScale[from])
}

// Send delivers msg from -> to. With the NIC model enabled, the message
// first queues on the sender's egress link and lands one propagation
// delay after it is sent; nothing queues it at the receiver. Self-sends
// are delivered with the model's local delay. The delivery is scheduled as
// a pooled field-encoded event, not a closure: one Send allocates nothing
// once the simulator's event pool is warm.
func (nw *Network) Send(from, to int, msg any) { nw.send(from, to, nw.size(msg), msg) }

func (nw *Network) send(from, to, size int, msg any) {
	sim := nw.sim
	sent := sim.now
	if from != to {
		// Serialized behind everything the sender queued before it.
		start, each := nw.Egress(from, size, 1)
		sent = start + each
	}
	e := sim.alloc()
	e.nw, e.from, e.to, e.msg = nw, int32(from), int32(to), msg
	sim.schedule(e, sent+Time(nw.Delay(from, to)), to, from)
}

// deliver lands a message at its destination's handler (Step dispatches
// queued deliveries here).
func (nw *Network) deliver(from, to int, msg any) {
	if nw.handlers[to] == nil {
		return
	}
	nw.msgs++
	nw.handlers[to](from, msg)
}

// Broadcast sends msg from -> every node including the sender itself
// (protocols typically self-deliver), sizing it once.
func (nw *Network) Broadcast(from int, msg any) {
	size := nw.size(msg)
	for to := range nw.handlers {
		nw.send(from, to, size, msg)
	}
}
