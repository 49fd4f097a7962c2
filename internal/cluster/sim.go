package cluster

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sb"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/wire"
)

// simPool recycles simulators across runs: Sim.Reset reuses the event
// pool, queue buckets and scratch arenas a previous run grew, so
// benchmark iterations and RunMany sweeps stop re-growing megabytes of
// scheduler state per run. Reset restores the exact just-constructed
// state, so results are identical whether a Sim is fresh or reused (the
// determinism contract).
var simPool = sync.Pool{New: func() any { return simnet.New(0) }}

// newAnalytic builds a run's analytic SB instances (tests count their hits).
var newAnalytic = sb.NewInstance

// Run executes one experiment inside the discrete-event simulator and
// returns its measurements. It is the simulated backend of the shared
// harness (collector): virtual time, the modeled network — whose base delay
// is also the client's and the reply's hop, and whose egress scale is a
// straggler's — and one event loop that runs everything, replica verbs
// inline. The collector's faults and ticks carry the global affinity
// (NodeNone), sorting before same-instant deliveries.
func Run(cfg Config) *Result {
	cfg = cfg.checked(cfg.Conflicts())
	n := cfg.N
	sim := simPool.Get().(*simnet.Sim)
	sim.Reset(cfg.Seed)
	defer func() {
		sim.Reset(0) // drop references from this run before pooling
		simPool.Put(sim)
	}()

	var model *simnet.GeoModel
	if cfg.Net == LAN {
		model = simnet.NewLAN()
	} else {
		model = simnet.NewWAN()
	}
	if cfg.AnalyticSB {
		model.JitterFrac = 0 // closed-form times need deterministic delays
	}
	nw := simnet.NewNetwork(sim, n, model, func(msg any) int { return wire.ModeledSize(msg, cfg.TxSize) })
	if cfg.NIC {
		nw.SetNICBps(1e9)
	}

	// The client rides its own affinity (node n, never a delivery target),
	// so it never perturbs a replica's event keys; a submission is a
	// closure-free call event at its target.
	client := simnet.On(sim, n)
	var replicas []*core.Replica
	c := newCollector(cfg, backend{
		net: nw, clock: simnet.On(sim, simnet.NodeNone), client: client,
		submit: func(home int, tx *types.Transaction, targets []int) {
			for _, target := range targets {
				d := nw.BaseDelay(home, target)
				client.CallAtNode(target, client.Now()+simnet.Time(d), submitToReplica, replicas[target], tx)
			}
		},
		onReplica: func(_ int, fn func()) { fn() },
		outScale:  nw.SetOutScale,
		replyHop:  func(replica, home int) time.Duration { return nw.BaseDelay(replica, home) },
		halt:      sim.Halt,
	})
	res := c.res

	// Shared analytic SB instances, created lazily per instance index.
	var analytic map[int]*sb.Instance
	if cfg.AnalyticSB {
		analytic = make(map[int]*sb.Instance)
	}
	replicas = c.replicas(func(i int, ccfg core.Config) *core.Replica {
		if cfg.AnalyticSB {
			ccfg.SB = func(instance int, hooks core.SBHooks) core.SB {
				inst, ok := analytic[instance]
				if !ok {
					inst = newAnalytic(sb.Config{
						N: n, F: c.f, Instance: instance,
						Window: cfg.Window, TxSize: cfg.TxSize,
					}, sim, nw)
					analytic[instance] = inst
				}
				return inst.Port(i, hooks.OnDeliver)
			}
		}
		return core.NewReplica(ccfg, simnet.On(sim, i), c.net)
	})
	c.start()

	// Live-set census: every replica's retained state plus pending events.
	if cfg.SampleLiveSet > 0 {
		c.every(cfg.SampleLiveSet, func(k int) {
			s := LiveSetSample{
				At:     cfg.SampleLiveSet * time.Duration(k),
				Events: sim.Pending(),
			}
			s.Total = s.Events
			for _, r := range replicas {
				ls := r.LiveSet()
				s.Trackers += ls.Trackers
				s.Slots += ls.Slots
				s.ExecQ += ls.ExecQ
				s.GlogQ += ls.GlogQ
				s.Escrows += ls.Escrows
				s.Archive += ls.Archive
				s.CkptVotes += ls.CkptVotes
				s.Total += ls.Total()
			}
			res.LiveSetSamples = append(res.LiveSetSamples, s)
			if s.Total > res.LiveSetPeak {
				res.LiveSetPeak = s.Total
			}
		})
	}

	sim.Run(simnet.Time(cfg.Duration + cfg.Drain))
	res.Events = sim.EventsProcessed()
	res.Messages = nw.Messages()
	return c.finish()
}

// submitToReplica is the client-submission event callback: delivering a
// transaction to one replica. Top-level so the scheduler's call events
// carry it without a closure allocation.
func submitToReplica(replica, tx any) {
	_ = replica.(*core.Replica).SubmitTx(tx.(*types.Transaction))
}
