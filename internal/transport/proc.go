package transport

import (
	"sync/atomic"
	"time"

	"repro/internal/types"
)

// Proc is the in-process real transport: one Node event loop per replica
// in a single process, messages carried between them as wire-encoded
// frames under real wall-clock time. Every send encodes through
// internal/wire exactly once — a broadcast shares one immutable pooled
// frame across all destinations — and every other replica decodes its own
// copy on its loop goroutine, exactly the isolation a socket transport
// gives: (a) replicas never share mutable message memory across
// goroutines and (b) Messages/Bytes count actual encoded wire sizes. A
// replica's message to itself skips the codec round trip: its loop is
// handed the message it sent (as the simulator always has; messages are
// immutable after send), counted at its encoded size like any other
// delivery.
//
// Senders outside the replica set (harness clients injecting SubmitMsg)
// may use any `from` id — it only reaches the handler as provenance.
type Proc struct {
	nodes      []*Node
	msgs       atomic.Uint64
	bytes      atomic.Uint64
	encodeErrs atomic.Uint64
	decodeErrs atomic.Uint64
}

// NewProc builds the transport and one Node per replica, ids 0..n-1.
func NewProc(n int) *Proc {
	p := &Proc{nodes: make([]*Node, n)}
	for i := range p.nodes {
		p.nodes[i] = NewNode()
		p.nodes[i].onWireErr = func(error) { p.decodeErrs.Add(1) }
	}
	return p
}

// Node returns replica id's event loop: the clock to build the replica
// against, and the handle to drive Start/Stop.
func (p *Proc) Node(id int) *Node { return p.nodes[id] }

// Register implements types.Network.
func (p *Proc) Register(id int, h types.Handler) { p.nodes[id].setHandler(h) }

// Start launches every node loop against one shared epoch.
func (p *Proc) Start(epoch time.Time) {
	for _, n := range p.nodes {
		n.Start(epoch)
	}
}

// Stop terminates every node loop and waits for them to exit.
func (p *Proc) Stop() {
	for _, n := range p.nodes {
		n.Stop()
	}
}

// Send implements types.Network: encode once into a pooled frame, count, and
// hand the frame to the destination's event loop, which decodes on
// dispatch (a send to self hands over msg itself, so the caller must be
// done with it). Unencodable messages are counted in EncodeErrors and
// dropped (the replica message set is closed, so a nonzero counter is a bug
// signal).
func (p *Proc) Send(from, to int, msg any) {
	if to < 0 || to >= len(p.nodes) {
		return
	}
	f, err := encodeFrame(msg)
	if err != nil {
		p.encodeErrs.Add(1)
		return
	}
	p.msgs.Add(1)
	p.bytes.Add(uint64(len(f.payload())))
	if to == from {
		f.recycle()
		p.nodes[to].enqueue(from, msg)
		return
	}
	f.retain(1)
	p.nodes[to].enqueueFrame(from, f)
}

// Broadcast implements types.Network: one encode, one shared immutable frame
// across every other destination, and msg itself to the sender's own loop
// (protocols self-deliver). Each other receiver decodes its own copy from
// the shared bytes, so destinations never alias each other's message
// memory, nor the sender's.
func (p *Proc) Broadcast(from int, msg any) {
	f, err := encodeFrame(msg)
	if err != nil {
		p.encodeErrs.Add(1)
		return
	}
	n := uint64(len(p.nodes))
	p.msgs.Add(n)
	p.bytes.Add(n * uint64(len(f.payload())))
	remote := len(p.nodes)
	if from >= 0 && from < remote {
		remote-- // the sender's own loop takes msg, not the frame
	}
	if remote > 0 {
		f.retain(remote)
	} else {
		f.recycle()
	}
	for to := range p.nodes {
		if to == from {
			p.nodes[to].enqueue(from, msg)
		} else {
			p.nodes[to].enqueueFrame(from, f)
		}
	}
}

// InjectTo delivers a harness-client message to each of targets outside
// the measured protocol traffic: the same encode/decode copy isolation as
// Send, from a single encode shared by every target, but the Messages/Bytes
// counters are not touched. The simulation harness schedules client
// submissions directly onto replicas, bypassing the network counters, so a
// real-backend run must leave them out too for Result.Messages to stay
// comparable across backends. Out-of-range targets are skipped.
func (p *Proc) InjectTo(from int, targets []int, msg any) {
	valid := 0
	for _, to := range targets {
		if to >= 0 && to < len(p.nodes) {
			valid++
		}
	}
	if valid == 0 {
		return
	}
	f, err := encodeFrame(msg)
	if err != nil {
		p.encodeErrs.Add(1)
		return
	}
	f.retain(valid)
	for _, to := range targets {
		if to >= 0 && to < len(p.nodes) {
			p.nodes[to].enqueueFrame(from, f)
		}
	}
}

// Messages returns the messages delivered, all destinations.
func (p *Proc) Messages() uint64 { return p.msgs.Load() }

// Bytes returns the encoded wire bytes delivered.
func (p *Proc) Bytes() uint64 { return p.bytes.Load() }

// EncodeErrors counts messages dropped because wire encoding failed.
// Always zero in a correct build: the replica message set is closed.
func (p *Proc) EncodeErrors() uint64 { return p.encodeErrs.Load() }

// DecodeErrors counts frames dropped because decoding failed on the
// receiver's loop. Always zero in a correct build — Proc only ever
// decodes its own encodings, so a nonzero counter means corruption.
func (p *Proc) DecodeErrors() uint64 { return p.decodeErrs.Load() }

var _ types.Network = (*Proc)(nil)
