package transport

import (
	"container/heap"
	"sync"
	"time"

	"repro/internal/types"
	"repro/internal/wire"
)

// inMsg is one delivered message waiting for a node's event loop: either
// a msg ready to dispatch (TCP's read loop decodes as it drains sockets;
// a replica's message to itself is the message it sent) or a
// still-encoded frame (Proc enqueues the sender's shared frame and each
// other receiver decodes its own copy on its loop goroutine, preserving
// the no-shared-mutable-memory property without an encode per receiver) —
// or a function Run handed the loop.
type inMsg struct {
	from int
	msg  any
	fr   *frame
	run  func()
}

// timer is one pending CallAt. seq is the node's schedule count, so equal
// deadlines fire in the order they were armed.
type timer struct {
	at   types.Time
	seq  uint64
	fn   func(a, b any)
	a, b any
}

// timerHeap orders pending timers by (at, seq) for container/heap.
type timerHeap []*timer

func (h timerHeap) Len() int      { return len(h) }
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h timerHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}
func (h *timerHeap) Push(x any) { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() any {
	old := *h
	last := len(old) - 1
	t := old[last]
	old[last] = nil
	*h = old[:last]
	return t
}

// Node is one wall-clock event loop — a replica's, or a harness's — and
// its types.Clock: a (deadline, seq) min-heap of timers, an inbox real
// transports enqueue messages into, and a goroutine that alternates between
// firing due timers and dispatching inbox messages. All replica code executes on that
// goroutine, so Now and CallAt need no locks: call them from timer
// callbacks and message handlers, or before Start.
//
// Lifecycle: NewNode, build the replica against the node (its clock),
// Register a handler through the owning transport, then Start. Stop waits
// for the loop to exit, after which no replica code runs.
type Node struct {
	// Loop-goroutine state. now is read from the wall clock once per loop
	// pass (replicas read it per transaction); while a timer fires it is
	// that timer's deadline, as under the simulator, so periodic timers
	// re-armed from their own callback do not drift.
	now    types.Time
	timers timerHeap
	seq    uint64
	fired  uint64
	dec    wire.Decoder // carves every frame this loop decodes

	mu      sync.Mutex
	inbox   []inMsg
	standby []inMsg // swap buffer: drain without holding the lock
	handler types.Handler

	// onWireErr observes frame-decode failures on the loop goroutine
	// (set by the owning transport before Start; nil drops silently).
	onWireErr func(error)

	wake chan struct{}
	quit chan struct{}
	done chan struct{}

	epoch time.Time
}

// NewNode builds one replica's node loop.
func NewNode() *Node {
	return &Node{
		wake: make(chan struct{}, 1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Now implements types.Clock: zero before Start, then the wall-clock time
// elapsed since the epoch passed to Start, as of the current loop pass.
func (n *Node) Now() types.Time { return n.now }

// CallAt implements types.Clock: fn(a, b) runs on the loop goroutine once
// the wall clock reaches t (clamped to Now).
func (n *Node) CallAt(t types.Time, fn func(a, b any), a, b any) {
	if t < n.now {
		t = n.now
	}
	n.seq++
	heap.Push(&n.timers, &timer{at: t, seq: n.seq, fn: fn, a: a, b: b})
}

// TimersFired returns how many timers have fired. Read it after Stop.
func (n *Node) TimersFired() uint64 { return n.fired }

// setHandler installs the replica's message handler (called by the owning
// transport's Register).
func (n *Node) setHandler(h types.Handler) {
	n.mu.Lock()
	n.handler = h
	n.mu.Unlock()
}

// enqueue hands a decoded inbound message to the node's event loop. Safe
// from any goroutine; messages from one sender are dispatched in enqueue
// order.
func (n *Node) enqueue(from int, msg any) {
	n.push(inMsg{from: from, msg: msg})
}

// enqueueFrame hands a still-encoded frame to the node's event loop,
// which decodes it just before dispatch and releases the sender's
// reference. The caller must have retained the frame for this receiver.
func (n *Node) enqueueFrame(from int, f *frame) {
	n.push(inMsg{from: from, fr: f})
}

// Run hands fn to the node's event loop, which calls it in order with the
// messages enqueued around it: how another goroutine acts on the loop's
// replica. Safe from any goroutine, and before Start.
func (n *Node) Run(fn func()) { n.push(inMsg{run: fn}) }

func (n *Node) push(m inMsg) {
	n.mu.Lock()
	n.inbox = append(n.inbox, m)
	n.mu.Unlock()
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// Start launches the event loop. The epoch anchors time zero: all
// nodes of one cluster share it so their clocks agree, which keeps
// wall-clock timer deadlines (BatchTimeout pulses, view-change timeouts)
// aligned the way the shared simulator aligns them in simulation.
func (n *Node) Start(epoch time.Time) {
	n.epoch = epoch
	go n.loop()
}

// Stop terminates the event loop and waits for it to exit. Idempotent
// after the first call returns. Whatever the inbox holds then, or receives
// later, is never dispatched; a frame among it is not released to the
// pool, only left to the garbage collector.
func (n *Node) Stop() {
	select {
	case <-n.quit:
	default:
		close(n.quit)
	}
	<-n.done
}

// idleWait bounds the sleep when no timer is queued: a replica always has
// a pulse timer pending, so this only covers startup and shutdown races.
const idleWait = 10 * time.Millisecond

// loop is the node's scheduler: read the wall clock, fire every timer due
// by then (including ones armed by the timers it fires), dispatch buffered
// inbound messages, then sleep until the next timer deadline or an inbox
// signal.
func (n *Node) loop() {
	defer close(n.done)
	sleep := time.NewTimer(idleWait)
	defer sleep.Stop()
	for {
		now := types.Time(time.Since(n.epoch))
		for len(n.timers) > 0 && n.timers[0].at <= now {
			t := heap.Pop(&n.timers).(*timer)
			n.now = t.at
			n.fired++
			t.fn(t.a, t.b)
		}
		n.now = now

		n.mu.Lock()
		pending := n.inbox
		n.inbox = n.standby[:0]
		handler := n.handler
		n.mu.Unlock()
		for i := range pending {
			m := pending[i]
			pending[i] = inMsg{} // drop the frame pointer once dispatched
			if m.run != nil {
				m.run()
				continue
			}
			msg := m.msg
			if m.fr != nil {
				dec, err := n.dec.Decode(m.fr.payload())
				m.fr.release()
				if err != nil {
					if n.onWireErr != nil {
						n.onWireErr(err)
					}
					continue
				}
				msg = dec
			}
			if handler != nil {
				handler(m.from, msg)
			}
		}
		n.standby = pending[:0]

		wait := idleWait
		if len(n.timers) > 0 {
			wait = time.Duration(n.timers[0].at - types.Time(time.Since(n.epoch)))
			if wait < 0 {
				wait = 0
			}
		}
		if !sleep.Stop() {
			select {
			case <-sleep.C:
			default:
			}
		}
		sleep.Reset(wait)
		select {
		case <-n.quit:
			return
		case <-n.wake:
		case <-sleep.C:
		}
	}
}

var _ types.Clock = (*Node)(nil)
