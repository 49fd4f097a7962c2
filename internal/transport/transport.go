// Package transport defines the seam between the replica state machines
// and whatever carries their messages, and implements it three ways:
//
//   - the deterministic simulator (*simnet.Network satisfies Transport
//     natively — the seam's method set is exactly the one replicas already
//     drive);
//   - Proc, an in-process transport that moves wire-encoded messages
//     between per-replica goroutines under real wall-clock time;
//   - TCP, the same replicas over real sockets with length-prefixed
//     framing, per-peer reconnect with backoff, and write timeouts.
//
// On both real transports every message is encoded once and each other
// replica decodes its own copy (through the wire.Decoder its receiving
// goroutine owns); a replica's message to itself is the one delivery that
// skips the codec — its loop is handed the message it sent, as under the
// simulator, counted at its encoded size. Messages are immutable after send.
//
// The core/pbft state machines run against one narrow clock, types.Clock
// (Now and CallAt). The simulator implements it in virtual time; real
// transports implement it with a Node per replica: a timer heap and an
// inbox drained by one event-loop goroutine against the wall clock.
// Everything a replica does — timer callbacks and message handling — runs
// on that single goroutine, preserving the simulator's single-threaded
// replica model, so no replica state needs locks. This package does not
// link the simulator.
//
// Determinism caveat: under real transports, time is the wall clock. Two
// runs interleave differently, so event-level determinism is gone; what
// survives is protocol-level agreement, which the sim-vs-real
// cross-validation harness (internal/cluster.RunReal and the X-val figure)
// pins by comparing committed block digests.
package transport

import "repro/internal/types"

// Transport is the full transport seam: handler registration,
// fire-and-forget sends, and delivered-traffic counters. The size argument
// is the simulator's modeled wire size; real transports ignore it and
// count actual encoded bytes (internal/wire), keeping Messages and Bytes
// comparable across backends by construction rather than by estimate.
type Transport interface {
	// Register installs the message handler for a replica id. Handlers run
	// on the destination replica's event-loop goroutine.
	Register(id int, h types.Handler)
	// Send carries msg from replica `from` to replica `to`. The size hint
	// is only meaningful to the simulator's bandwidth model.
	Send(from, to, size int, msg any)
	// Broadcast sends msg from -> every replica including the sender
	// (protocols self-deliver, matching simnet.Network.Broadcast).
	Broadcast(from, size int, msg any)
	// Messages returns the number of messages delivered so far.
	Messages() uint64
	// Bytes returns the total delivered payload bytes: modeled sizes for
	// the simulator, actual encoded wire sizes for real transports.
	Bytes() uint64
}
