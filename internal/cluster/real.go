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
// (collector): one event-loop goroutine per replica with its wall clock,
// every message wire-encoded and decoded between replicas, no reply hop to
// model, and one more transport.Node loop for the collector's faults, ticks
// and client. Replica verbs run on the replica's own loop; a straggler's
// links are real and are not slowed.
//
// The measured numbers are wall-clock facts about this machine, not
// modeled WAN/LAN predictions, and they are not deterministic. Config.Net
// only labels the result. The run stops when the drain budget expires,
// when Halt says so, or as soon as every submission has confirmed at every
// replica that is up.
// Simulation-only knobs (Config.SimOnly) panic; the public SDK rejects
// them with a friendly error first.
func RunReal(cfg Config) *Result {
	cfg = cfg.checked(cfg.SimOnly())
	n := cfg.N
	proc := transport.NewProc(n)
	harness := &wallClock{Node: transport.NewNode()}
	done := make(chan struct{})
	var once sync.Once
	stop := func() { once.Do(func() { close(done) }) }
	// Submissions are uncounted (Proc.InjectTo), as client traffic is in
	// the simulator.
	msg := &core.SubmitMsg{} // reused: InjectTo encodes before it returns
	c := newCollector(cfg, backend{
		net: proc, clock: harness.Node, client: harness,
		submit: func(_ int, tx *types.Transaction, targets []int) {
			msg.Tx = tx
			proc.InjectTo(n, targets, msg)
		},
		onReplica: func(id int, fn func()) { proc.Node(id).Run(fn) },
		replyHop:  func(int, int) time.Duration { return 0 },
		halt:      stop,
		drained:   stop,
	})
	c.replicas(func(i int, ccfg core.Config) *core.Replica { return core.NewReplica(ccfg, proc.Node(i), c.net) })
	c.start() // queues the verbs and the first events; nothing runs until the loops start
	harness.epoch = time.Now()
	proc.Start(harness.epoch)
	harness.Start(harness.epoch)
	select {
	case <-done:
	case <-time.After(time.Until(harness.epoch.Add(cfg.Duration + cfg.Drain))):
	}
	elapsed := time.Since(harness.epoch)
	harness.Stop()
	proc.Stop() // replica goroutines are gone after this: reads below are safe

	res := c.res
	res.Messages = proc.Messages()
	for i := 0; i < n; i++ {
		res.Events += proc.Node(i).TimersFired()
	}
	return c.finish(elapsed)
}

// wallClock is the harness loop as the client reads it: submissions run at
// their deadlines but are stamped when made.
type wallClock struct {
	*transport.Node
	epoch time.Time
}

// Now returns the wall-clock time since the run's epoch.
func (w *wallClock) Now() types.Time { return types.Time(time.Since(w.epoch)) }
