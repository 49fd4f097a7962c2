// Package transport carries the replica state machines' messages over real
// links. It implements types.Network, the one send seam core and pbft
// drive, twice — and *simnet.Network implements it a third time, in
// virtual time:
//
//   - Proc, an in-process transport that moves wire-encoded messages
//     between per-replica goroutines under real wall-clock time;
//   - TCP, the same replicas over real sockets with length-prefixed
//     framing, per-peer reconnect with backoff, and write timeouts.
//
// Loopback is a whole cluster of TCP endpoints on 127.0.0.1 over the node
// loops of a Proc, so the cluster harness drives either the same way.
//
// Both transports count the bytes they actually encode (internal/wire) in
// Messages and Bytes; only the simulator charges a modeled size
// (wire.ModeledSize).
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
