package cluster

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sb"
	"repro/internal/scenario"
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

// Run executes one experiment inside the discrete-event simulator and
// returns its measurements. It is the simulated backend of the shared
// harness (collector): virtual time, the modeled network — whose base delay
// is also the reply hop — an event-driven client, and hooks that fire one
// at a time by construction: one event loop runs everything.
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
	if cfg.NIC && !cfg.AnalyticSB {
		model.BandwidthBps = 0 // serialization moves into the NIC queues
		nw.SetNICBps(1e9)
	}

	c := newCollector(cfg, func(replica, home int) time.Duration {
		return nw.BaseDelay(replica, home, 256)
	})
	res := c.res
	runEnd := cfg.Duration + cfg.Drain
	// Phases that close mid-run stream out the moment they are final; the
	// rest (at minimum the last phase) are emitted at finalization.
	if pt := c.pt; pt != nil && cfg.OnPhase != nil {
		for i := range pt.windows {
			if pt.windows[i].End >= runEnd {
				continue
			}
			sim.At(simnet.Time(pt.windows[i].End), func() {
				pt.emitted++
				cfg.OnPhase(pt.measure(i, c.meta, forever))
			})
		}
	}

	// Shared analytic SB instances, created lazily per instance index.
	var analytic map[int]*sb.Instance
	if cfg.AnalyticSB {
		analytic = make(map[int]*sb.Instance)
	}
	replicas := c.replicas(func(i int, ccfg core.Config) *core.Replica {
		if cfg.AnalyticSB {
			ccfg.SB = func(instance int, hooks core.SBHooks) core.SB {
				inst, ok := analytic[instance]
				if !ok {
					inst = sb.NewInstance(sb.Config{
						N: n, F: c.f, Instance: instance,
						Window: cfg.Window, TxSize: cfg.TxSize,
					}, sim, nw)
					analytic[instance] = inst
				}
				return inst.Port(i, hooks.OnDeliver)
			}
		}
		return core.NewReplica(ccfg, simnet.On(sim, i), nw)
	})
	// fire applies one fault or load event to the running cluster — the one
	// step every injected fault goes through: the static stragglers and
	// crashes of the paper's figures and each event of a scenario timeline.
	// Replica-level verbs act on each of e.Nodes; the network-wide ones act
	// once.
	loadMult := 1.0
	fire := func(e scenario.Event) {
		switch e.Kind {
		case scenario.Partition:
			nw.Partition(e.Groups...)
		case scenario.Heal:
			nw.Heal()
		case scenario.LoadSurge:
			loadMult = e.Scale
		}
		for _, id := range e.Nodes {
			switch r := replicas[id]; e.Kind {
			case scenario.Crash:
				r.Stop()
				nw.SetDown(id, true)
			case scenario.Recover:
				nw.SetDown(id, false)
				r.Recover()
			case scenario.Straggle:
				nw.SetOutScale(id, e.Scale)
				r.SetPulseScale(e.Scale)
			case scenario.Equivocate:
				r.SetEquivocate(true)
			case scenario.Censor:
				r.SetCensorAll(true)
			case scenario.MuteLeader:
				r.SetMuteLeader(true)
			}
		}
	}
	// Static faults are events too, their victims the highest ids: the
	// stragglers slow everything they send and their proposal pulses by
	// StragglerFactor from before the first pulse (Sec. VII-A); the crash
	// set stops at CrashAt (Fig. 7).
	if cfg.Stragglers > 0 {
		fire(scenario.Event{Kind: scenario.Straggle, Nodes: highest(n, cfg.Stragglers), Scale: cfg.StragglerFactor})
	}
	for _, r := range replicas {
		r.Start()
	}
	if cfg.CrashFaults > 0 {
		crash := scenario.Event{At: cfg.CrashAt, Kind: scenario.Crash, Nodes: highest(n, cfg.CrashFaults)}
		sim.At(simnet.Time(crash.At), func() { fire(crash) })
	}
	if cfg.Scenario != nil {
		for _, e := range cfg.Scenario.Events {
			sim.At(simnet.Time(e.At), func() { fire(e) })
		}
	}

	// Open-loop clients: one transaction every 1/(LoadTPS*loadMult)
	// seconds, submitted to the replicas core.SubmitRouter names.
	// Individual submissions are scheduled as closure-free call events —
	// one transaction allocates its metadata entry and nothing else on the
	// client side.
	//
	// The client rides its own scheduling affinity (node id n — a pure
	// source, never a delivery target), so its submission chain draws from
	// its own schedule counter and never perturbs a replica's event keys.
	client := simnet.On(sim, n)
	interval := time.Duration(float64(time.Second) / cfg.LoadTPS)
	windowEnd := simnet.Time(cfg.Duration)
	router := core.NewSubmitRouter(n, c.f)
	var submitNext func(at simnet.Time)
	submitNext = func(at simnet.Time) {
		if at > windowEnd || (cfg.TotalTxs > 0 && res.Submitted >= cfg.TotalTxs) {
			return
		}
		client.At(at, func() {
			tx := c.gen.Next()
			home := c.submit(tx, client.Now())
			for _, target := range router.Targets(tx) {
				d := nw.BaseDelay(home, target, cfg.TxSize)
				client.CallAtNode(target, client.Now()+simnet.Time(d), submitToReplica, replicas[target], tx)
			}
			gap := time.Duration(float64(interval) / loadMult)
			if gap <= 0 {
				gap = 1 // virtual time must advance or the loop never ends
			}
			submitNext(at + simnet.Time(gap))
		})
	}
	submitNext(simnet.Time(cfg.Warmup) / 2)

	// every runs fn(k) from a bookkeeping event at k*period of virtual time,
	// k = 1, 2, ..., through the end of the run or until the simulation is
	// halted.
	every := func(period time.Duration, fn func(k int)) {
		var arm func(k int)
		arm = func(k int) {
			sim.At(simnet.Time(period)*simnet.Time(k), func() {
				fn(k)
				if !sim.Halted() && period*time.Duration(k+1) <= runEnd {
					arm(k + 1)
				}
			})
		}
		arm(1)
	}
	// Streaming windows and cancellation: every 0.5 s of virtual time, poll
	// Halt and report the just-closed series bin (final by the same argument
	// as phaseTracker.stat's). Bins still open when the ticks end are
	// flushed at finalization.
	if cfg.OnWindow != nil || cfg.Halt != nil {
		every(res.Series.Bin, func(k int) {
			if cfg.Halt != nil && cfg.Halt() {
				res.Halted = true
				sim.Halt()
			} else if cfg.OnWindow != nil {
				c.emitWindows(k)
			}
		})
	}
	// Live-set census: every SampleLiveSet of virtual time, walk every
	// replica and record the retained-state sum plus the scheduler's pending
	// events.
	if cfg.SampleLiveSet > 0 {
		every(cfg.SampleLiveSet, func(k int) {
			s := LiveSetSample{
				At:     cfg.SampleLiveSet * time.Duration(k),
				Events: sim.Pending(),
			}
			for _, r := range replicas {
				ls := r.LiveSet()
				s.Trackers += ls.Trackers
				s.Slots += ls.Slots
				s.ExecQ += ls.ExecQ
				s.GlogQ += ls.GlogQ
				s.Escrows += ls.Escrows
				s.Archive += ls.Archive
				s.Retained += ls.Retained
				s.CkptVotes += ls.CkptVotes
			}
			s.Total = s.Events + s.Trackers + s.Slots + s.ExecQ + s.GlogQ +
				s.Escrows + s.Archive + s.Retained + s.CkptVotes
			res.LiveSetSamples = append(res.LiveSetSamples, s)
			if s.Total > res.LiveSetPeak {
				res.LiveSetPeak = s.Total
			}
		})
	}

	sim.Run(simnet.Time(runEnd))
	res.Events = sim.EventsProcessed()
	res.Messages = nw.Messages()
	return c.finish(replicas, time.Duration(sim.Now()))
}

// highest lists the k highest replica ids of an n-replica cluster, from
// the top: the victims of the static faults.
func highest(n, k int) []int {
	ids := make([]int, k)
	for i := range ids {
		ids[i] = n - 1 - i
	}
	return ids
}

// submitToReplica is the client-submission event callback: delivering a
// transaction to one replica. Top-level so the scheduler's call events
// carry it without a closure allocation.
func submitToReplica(replica, tx any) {
	_ = replica.(*core.Replica).SubmitTx(tx.(*types.Transaction))
}
