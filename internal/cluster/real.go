package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/types"
)

// KernelReal names the engine RunReal reports in Result.Kernel: replicas
// execute on real goroutines under wall-clock time instead of inside the
// discrete-event simulator.
const KernelReal = "real"

// RunReal executes one experiment over the in-process real transport
// (transport.Proc) and returns measurements in the same Result shape as
// the simulated Run. It is the real backend of the shared harness
// (collector): one event-loop goroutine per replica with its wall clock,
// every message wire-encoded and decoded between replicas, no reply hop to
// model, a client goroutine paced by wall-clock deadlines, and one mutex
// that delivers the n replica goroutines' hooks and the client's
// submissions to the collector — and the user's observers — one at a time.
//
// The measured numbers are wall-clock facts about this machine, not
// modeled WAN/LAN predictions, and they are not deterministic — two runs
// with the same seed return similar, never identical, Results. Config.Net
// only labels the result. OnWindow reports every series bin when the run
// ends (there is no virtual-time tick to stream them on); Halt is polled
// every 10 ms. Simulation-only knobs (Config.SimOnly) panic, mirroring
// Run's treatment of invalid combinations; the public SDK rejects them
// with a friendly error first.
func RunReal(cfg Config) *Result {
	cfg = cfg.checked(cfg.SimOnly())
	n := cfg.N
	proc := transport.NewProc(n)
	c := newCollector(cfg, KernelReal, func(int, int) time.Duration { return 0 })
	res := c.res

	var mu sync.Mutex // guards the collector
	replicas := c.replicas(func(i int, ccfg core.Config) *core.Replica {
		confirm, deliver := ccfg.OnConfirm, ccfg.OnBlockDeliver
		ccfg.OnConfirm = func(tx *types.Transaction, success bool, st core.StageTrace) {
			mu.Lock()
			confirm(tx, success, st)
			mu.Unlock()
		}
		if deliver != nil {
			ccfg.OnBlockDeliver = func(instance int, b *types.Block) {
				mu.Lock()
				deliver(instance, b)
				mu.Unlock()
			}
		}
		return core.NewReplica(ccfg, proc.Node(i), proc)
	})
	for _, r := range replicas {
		r.Start() // queues the first pulses; nothing runs until the loops start
	}
	epoch := time.Now()
	proc.Start(epoch)
	defer proc.Stop()

	// Open-loop client on its own goroutine: the same submission schedule
	// as the simulator (first transaction at Warmup/2, one every
	// 1/LoadTPS), paced by absolute wall-clock deadlines so generation
	// cost does not stretch the intervals. Submissions travel through
	// Proc.InjectTo — wire-encoded once and shared (immutably) across
	// the targets, decoded per receiver like everything else, but uncounted,
	// matching the sim harness where client traffic bypasses the network
	// counters.
	var halted atomic.Bool
	clientDone := make(chan struct{})
	go func() {
		defer close(clientDone)
		interval := time.Duration(float64(time.Second) / cfg.LoadTPS)
		router := core.NewSubmitRouter(n, c.f)
		msg := &core.SubmitMsg{} // reused: InjectTo encodes before it returns
		for k := 0; cfg.TotalTxs == 0 || k < cfg.TotalTxs; k++ {
			at := cfg.Warmup/2 + time.Duration(k)*interval
			if at > cfg.Duration {
				break
			}
			if d := time.Until(epoch.Add(at)); d > 0 {
				time.Sleep(d)
			}
			if halted.Load() {
				break
			}
			tx := c.gen.Next()
			tx.ID() // hash outside the lock; submit reads the memo
			now := types.Time(time.Since(epoch))
			mu.Lock()
			c.submit(tx, now)
			mu.Unlock()
			msg.Tx = tx
			proc.InjectTo(n, router.Targets(tx), msg)
		}
	}()

	// Run until the drain budget expires, or earlier once every submitted
	// transaction has confirmed (wall time is real here — don't waste it),
	// or Halt says stop.
	allDone := func() bool {
		select {
		case <-clientDone:
		default:
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		return c.done == len(c.meta)
	}
	deadline := epoch.Add(cfg.Duration + cfg.Drain)
	for time.Now().Before(deadline) && !allDone() {
		if cfg.Halt != nil && cfg.Halt() {
			res.Halted = true
			halted.Store(true)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	<-clientDone
	elapsed := time.Since(epoch)
	proc.Stop() // replica goroutines are gone after this: reads below are safe

	res.Messages = proc.Messages()
	for i := 0; i < n; i++ {
		res.Events += proc.Node(i).TimersFired()
	}
	return c.finish(replicas, elapsed)
}
