package types

import "time"

// Time is nanoseconds since run start: virtual time inside the simulator,
// wall-clock time elapsed since the cluster's shared epoch on real
// transports.
type Time int64

// String formats the time as a duration.
func (t Time) String() string { return time.Duration(t).String() }

// Seconds returns the time in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Clock is everything the replica state machines (core, pbft) need from
// the engine that executes them: the current time and a one-shot callback
// at an absolute time. fn is a top-level function whose operands ride
// along, so arming a timer allocates no closure. Past deadlines fire as
// soon as possible, equal deadlines in scheduling order, and inside fn Now
// reports fn's deadline. There is no cancel: callers invalidate an armed
// callback with a generation token in an operand. simnet.NodeSim
// implements Clock in virtual time, transport.Node against the wall clock;
// both must be called from the replica's own execution context.
type Clock interface {
	Now() Time
	CallAt(t Time, fn func(a, b any), a, b any)
}

// CallAfter schedules fn(a, b) d after c's current time.
func CallAfter(c Clock, d time.Duration, fn func(a, b any), a, b any) {
	c.CallAt(c.Now()+Time(d), fn, a, b)
}

// Handler consumes a message delivered to a node.
type Handler func(from int, msg any)

// Network is the one send seam the replica state machines drive: handler
// registration and fire-and-forget sends, each naming its sender. from is
// the identity the receiver's handler is given. A send carries the message
// alone: what it costs in bytes is the backend's business — simnet.Network
// charges the modeled size it was built with, the real transports
// (internal/transport) count the encoded bytes. Broadcast delivers to every
// node including the sender, whose own copy is msg itself; messages are
// immutable after send.
type Network interface {
	Register(id int, h Handler)
	Send(from, to int, msg any)
	Broadcast(from int, msg any)
}
