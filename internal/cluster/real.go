package cluster

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/types"
)

// RunReal executes one experiment over the in-process real transport
// (transport.Proc) and returns measurements in the same Result shape as
// the simulated Run. It is the real backend of the shared harness
// (collector), runReal over Proc: one event-loop goroutine per replica
// with its wall clock, every message wire-encoded and decoded between
// replicas, no reply hop to model, and one more transport.Node loop for the
// collector's faults, ticks and client. Replica verbs run on the replica's
// own loop; a straggler's links are real and are not slowed.
//
// The measured numbers are wall-clock facts about this machine, not
// modeled WAN/LAN predictions, and they are not deterministic. Config.Net
// only labels the result. The run stops when the drain budget expires,
// when Halt says so, or as soon as every submission has confirmed at every
// replica that is up.
// Simulation-only knobs (Config.SimOnly) panic; the public SDK rejects
// them with a friendly error first.
func RunReal(cfg Config) *Result {
	return runReal(cfg, func(n int) realNet { return transport.NewProc(n) })
}

// realNet is what runReal drives of a real cluster (transport.Proc or
// transport.Loopback).
type realNet interface {
	types.Network
	Node(id int) *transport.Node
	InjectTo(from int, targets []int, msg any)
	Start(epoch time.Time)
	Stop()
	Messages() uint64
}

// runReal is RunReal over the cluster mk builds. cfg is checked before mk
// runs, so a config that breaks a rule opens nothing.
func runReal(cfg Config, mk func(n int) realNet) *Result {
	cfg = cfg.checked(cfg.SimOnly())
	n := cfg.N
	nw := mk(n)
	harness := &wallClock{Node: transport.NewNode()}
	done := make(chan struct{})
	var once sync.Once
	stop := func() { once.Do(func() { close(done) }) }
	// Submissions are uncounted (InjectTo), as client traffic is in the
	// simulator.
	msg := &core.SubmitMsg{} // reused: InjectTo encodes before it returns
	c := newCollector(cfg, backend{
		net: nw, clock: harness.Node, client: harness,
		submit: func(_ int, tx *types.Transaction, targets []int) {
			msg.Tx = tx
			nw.InjectTo(n, targets, msg)
		},
		onReplica: func(id int, fn func()) { nw.Node(id).Run(fn) },
		replyHop:  func(int, int) time.Duration { return 0 },
		halt:      stop,
		drained:   stop,
	})
	c.replicas(func(i int, ccfg core.Config) *core.Replica { return core.NewReplica(ccfg, nw.Node(i), c.net) })
	c.start() // queues the verbs and the first events; nothing runs until the loops start
	harness.epoch = time.Now()
	nw.Start(harness.epoch)
	harness.Start(harness.epoch)
	select {
	case <-done:
	case <-time.After(time.Until(harness.epoch.Add(cfg.Duration + cfg.Drain))):
	}
	harness.Stop()
	nw.Stop() // replica goroutines are gone after this: reads below are safe

	res := c.res
	res.Messages = nw.Messages()
	for i := 0; i < n; i++ {
		res.Events += nw.Node(i).TimersFired()
	}
	return c.finish()
}

// wallClock is the harness loop as the client reads it: submissions run at
// their deadlines but are stamped when made.
type wallClock struct {
	*transport.Node
	epoch time.Time
}

// Now returns the wall-clock time since the run's epoch.
func (w *wallClock) Now() types.Time { return types.Time(time.Since(w.epoch)) }
