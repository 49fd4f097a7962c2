package cluster

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/types"
	"repro/internal/workload"
)

// collector is the half of a run every backend shares: it configures the
// replicas, applies every fault, paces the open-loop client, keeps the
// client-side submission record, and stamps each client-visible
// confirmation (the (f+1)-th reply) on it; every number the Result reports
// is read off those records (records.go). A backend (Run: the simulator;
// runReal: a real cluster, transport.Proc or transport.Loopback) supplies
// the engine. Its own events and the replicas' hooks take mu around the
// books, so a backend may run them concurrently.
type collector struct {
	cfg     Config
	f       int
	be      backend
	net     *faultnet.Network // be.net behind the fault verbs
	res     *Result
	gen     workload.Source
	genesis func(*ledger.Store)
	pt      *phaseTracker // nil without a Scenario
	reps    []*core.Replica

	// The client; only the collector's own events touch it.
	interval time.Duration
	loadMult float64 // a LoadSurge's
	router   *core.SubmitRouter
	due      types.Time // of the next submission

	mu         sync.Mutex
	clientDone bool     // the submission chain has ended
	meta       []txMeta // in submission order, indexed by ordinal
	// byID finds the latest submission of each content by its ID, the one
	// identity a transaction has: a submission of content already
	// submitted joins its twins (txMeta.twin), and a reply that carries no
	// ordinal (a real transport's decoded copy) is found here.
	byID map[types.TxID]int32
	done int // transactions confirmed client-visibly
	// confirmedAt counts, per replica, the transactions of this run it has
	// confirmed.
	confirmedAt []int
	// tally bins the client-visible replies as they are recorded, for
	// OnWindow to stream bins [0, windowsEmitted) from mid-run.
	tally          metrics.Series
	windowsEmitted int
	stop           types.Time // the halt's tick; forever unless halted
}

// backend is what a run's engine hands the collector: the replicas'
// network, the clocks the faults and ticks (clock) and the submission chain
// (client) run on, and what only the engine can do. onReplica runs a
// replica verb where the replica runs; outScale, nil on real links, slows a
// straggler's egress; replyHop is zero on real links; halt stops the
// engine, and drained, if set, is called once every submission has
// confirmed client-visibly and at every replica that is up (a real backend
// stops there, the simulator runs to the end).
type backend struct {
	net           types.Network
	clock, client types.Clock
	submit        func(home int, tx *types.Transaction, targets []int)
	onReplica     func(id int, fn func())
	outScale      func(id int, scale float64)
	replyHop      func(replica, home int) time.Duration
	halt, drained func()
}

// newCollector starts a run's books. cfg must already carry its defaults.
func newCollector(cfg Config, be backend) *collector {
	c := &collector{
		cfg: cfg, f: (cfg.N - 1) / 3, be: be, net: faultnet.Wrap(be.net, cfg.N),
		res:         &Result{Protocol: cfg.Protocol.Name, Net: cfg.Net.String(), N: cfg.N, Breakdown: &metrics.Breakdown{}},
		gen:         cfg.Source,
		interval:    time.Duration(float64(time.Second) / cfg.LoadTPS),
		loadMult:    1,
		router:      core.NewSubmitRouter(cfg.N, (cfg.N-1)/3),
		confirmedAt: make([]int, cfg.N),
		stop:        forever,
	}
	// The books are sized once for the submission schedule (TotalTxs at
	// most) and the tally for the run's length, 1 Mi entries each at most,
	// so the measured path regrows neither; a load spike just appends.
	scheduled := int((cfg.Duration-cfg.Warmup/2).Seconds()*cfg.LoadTPS) + 1
	if cfg.TotalTxs > 0 {
		scheduled = min(scheduled, cfg.TotalTxs)
	}
	reserve := min(max(scheduled, 0), 1<<20)
	c.meta = make([]txMeta, 0, reserve)
	c.byID = make(map[types.TxID]int32, reserve)
	if c.gen == nil {
		c.gen = workload.New(cfg.Workload)
	}
	c.genesis = c.gen.Genesis()
	runEnd := cfg.Duration + cfg.Drain
	c.tally = make(metrics.Series, 0, min(int(runEnd/metrics.BinWidth), 1<<20)+2)
	if cfg.Scenario != nil {
		c.pt = newPhaseTracker(cfg.Scenario, runEnd)
	}
	return c
}

// replicaConfig is the one place a cluster.Config becomes a replica's
// core.Config; hooks are attached by collector.replicas.
func replicaConfig(cfg Config, id int, genesis func(*ledger.Store)) core.Config {
	n := cfg.N
	ccfg := core.NewConfig(n, id, cfg.Protocol, cfg.Params, genesis)
	if cfg.ByzantineFaults > 0 && id >= n-cfg.ByzantineFaults {
		ccfg.ByzantineMute = true
	}
	return ccfg
}

// replicas builds the cluster. Each replica's configuration arrives at mk
// with the measurement hooks attached, which call the collector and the
// user's observers one at a time; mk supplies the clock and transport
// (c.net). Only replica 0 carries OnViewChange, and its counter is read
// after the run.
func (c *collector) replicas(mk func(i int, ccfg core.Config) *core.Replica) []*core.Replica {
	c.reps = make([]*core.Replica, c.cfg.N)
	for i := range c.reps {
		i := i
		ccfg := replicaConfig(c.cfg, i, c.genesis)
		ccfg.OnConfirm = func(tx *types.Transaction, success bool, st core.StageTrace) {
			c.mu.Lock()
			c.confirm(i, tx, success, st)
			c.mu.Unlock()
		}
		if i == 0 {
			ccfg.OnViewChange = func(int, uint64, types.Time) { c.res.ViewChanges++ }
		}
		if c.cfg.OnBlockDeliver != nil {
			ccfg.OnBlockDeliver = func(instance int, b *types.Block) {
				c.mu.Lock()
				c.cfg.OnBlockDeliver(i, instance, b)
				c.mu.Unlock()
			}
		}
		c.reps[i] = mk(i, ccfg)
	}
	return c.reps
}

// start slows the static stragglers before the first pulse, starts every
// replica, and schedules the rest of the run in this order: each phase's
// end, the static crash and the scenario's events, the client, the ticks.
func (c *collector) start() {
	cfg, n := c.cfg, c.cfg.N
	runEnd := cfg.Duration + cfg.Drain
	// Phases that close mid-run stream out the moment they are final; the
	// rest (at minimum the last phase) are emitted at finalization.
	if pt := c.pt; pt != nil && cfg.OnPhase != nil {
		for i := range pt.windows {
			if pt.windows[i].End < runEnd {
				at(c.be.clock, types.Time(pt.windows[i].End), func() {
					c.mu.Lock()
					defer c.mu.Unlock()
					pt.emitted++
					cfg.OnPhase(pt.measure(i, c.meta, forever))
				})
			}
		}
	}
	// Static faults are events too, their victims the highest ids: the
	// stragglers (Sec. VII-A) and the crash set at CrashAt (Fig. 7).
	if cfg.Stragglers > 0 {
		c.fire(scenario.Event{Kind: scenario.Straggle, Nodes: highest(n, cfg.Stragglers), Scale: cfg.StragglerFactor})
	}
	for i, r := range c.reps {
		c.be.onReplica(i, r.Start)
	}
	var timeline []scenario.Event
	if cfg.CrashFaults > 0 {
		timeline = append(timeline, scenario.Event{At: cfg.CrashAt, Kind: scenario.Crash, Nodes: highest(n, cfg.CrashFaults)})
	}
	if cfg.Scenario != nil {
		timeline = append(timeline, cfg.Scenario.Events...)
	}
	for _, e := range timeline {
		at(c.be.clock, types.Time(e.At), func() { c.fire(e) })
	}
	c.next(types.Time(cfg.Warmup) / 2)
	// Every 0.5 s: poll Halt, else stream the bin that closed.
	if cfg.OnWindow != nil || cfg.Halt != nil {
		c.every(metrics.BinWidth, func(k int) {
			c.mu.Lock()
			defer c.mu.Unlock()
			if cfg.Halt != nil && cfg.Halt() {
				c.res.Halted = true
				c.stop = types.Time(k) * types.Time(metrics.BinWidth)
				c.be.halt()
			} else if cfg.OnWindow != nil {
				c.emitWindows(k)
			}
		})
	}
}

// fire applies one fault or load event — the one step every injected fault
// goes through. Link faults go to the decorator, replica verbs through the
// backend to each of e.Nodes. A crash or recovery is one step where the
// replica runs: the replica stops before its links go down, and its links
// come up before it recovers, so a real replica sends nothing in between
// that the decorator would drop.
func (c *collector) fire(e scenario.Event) {
	switch e.Kind {
	case scenario.Partition:
		c.net.Partition(e.Groups...)
	case scenario.Heal:
		c.net.Heal()
	case scenario.LoadSurge:
		c.loadMult = e.Scale
	}
	for _, id := range e.Nodes {
		switch r := c.reps[id]; e.Kind {
		case scenario.Crash:
			c.be.onReplica(id, func() { r.Stop(); c.net.SetDown(id, true) })
		case scenario.Recover:
			c.be.onReplica(id, func() { c.net.SetDown(id, false); r.Recover() })
		case scenario.Straggle:
			if c.be.outScale != nil {
				c.be.outScale(id, e.Scale)
			}
			c.be.onReplica(id, func() { r.SetPulseScale(e.Scale) })
		case scenario.Equivocate:
			c.be.onReplica(id, func() { r.SetEquivocate(true) })
		case scenario.Censor:
			c.be.onReplica(id, func() { r.SetCensorAll(true) })
		case scenario.MuteLeader:
			c.be.onReplica(id, func() { r.SetMuteLeader(true) })
		}
	}
}

// next schedules the client's submission at t, or ends the chain.
func (c *collector) next(t types.Time) {
	if t > types.Time(c.cfg.Duration) || (c.cfg.TotalTxs > 0 && len(c.meta) >= c.cfg.TotalTxs) || c.res.Halted {
		c.mu.Lock()
		c.clientDone = true
		c.checkDrained()
		c.mu.Unlock()
		return
	}
	c.due = t
	c.be.client.CallAt(t, submitNext, c, nil)
}

// submitNext submits the next transaction, one every 1/(LoadTPS × the
// surge multiplier). Top-level, so the chain schedules no closure.
func submitNext(a, _ any) {
	c := a.(*collector)
	tx := c.gen.Next()
	tx.ID() // hash outside the lock; submit reads the cached digest
	now := c.be.client.Now()
	c.mu.Lock()
	home := c.submit(tx, now)
	c.mu.Unlock()
	c.be.submit(home, tx, c.router.Targets(tx))
	gap := time.Duration(float64(c.interval) / c.loadMult)
	if gap <= 0 {
		gap = 1 // time must advance or the chain never ends
	}
	c.next(c.due + types.Time(gap))
}

// every runs fn(k) at k*period, k = 1, 2, ..., to the end of the run or a halt.
func (c *collector) every(period time.Duration, fn func(k int)) {
	runEnd := c.cfg.Duration + c.cfg.Drain
	var arm func(k int)
	arm = func(k int) {
		at(c.be.clock, types.Time(period)*types.Time(k), func() {
			fn(k)
			if !c.res.Halted && period*time.Duration(k+1) <= runEnd {
				arm(k + 1)
			}
		})
	}
	arm(1)
}

// at schedules fn at t on clk.
func at(clk types.Clock, t types.Time, fn func()) {
	clk.CallAt(t, func(fn, _ any) { fn.(func())() }, fn, nil)
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

// submit opens tx's client-side record, stamping its submission time and
// its ordinal, the record's index; it returns the replica co-located with
// the client. A submission of content already submitted joins the ring of
// its twins and starts from the replies that content already has: a
// replica confirms a content once, so a content that already completed
// client-visibly completes this submission at once, with its outcome.
func (c *collector) submit(tx *types.Transaction, now types.Time) (home int) {
	k := len(c.meta)
	home = k % c.cfg.N
	tx.SubmitNS = int64(now)
	tx.SetOrdinal(k)
	m := txMeta{submit: now, home: int32(home)}
	if prev, ok := c.byID[tx.ID()]; ok {
		p := &c.meta[prev]
		if m.twin = p.twin; m.twin == 0 {
			m.twin = prev + 1
		}
		p.twin = int32(k) + 1
		m.replies, m.failed = p.replies, p.failed
	}
	c.byID[tx.ID()] = int32(k)
	c.meta = append(c.meta, m)
	if m.replies > int32(c.f) {
		c.complete(k, tx, !m.failed, now)
	}
	return home
}

// lookup returns the ordinal of tx's record: the one stamped on it (the
// simulator's replicas report the submitted transaction or a copy of it),
// else that of the latest submission of its content; -1 if this run never
// submitted it.
func (c *collector) lookup(tx *types.Transaction) int {
	if k, ok := tx.Ordinal(); ok && k < len(c.meta) {
		return k
	}
	if k, ok := c.byID[tx.ID()]; ok {
		return int(k)
	}
	return -1
}

// confirm is the client-side confirmation accounting: replica confirmed tx
// at st.Confirmed. A replica confirms a content once, so its reply counts
// for every submission of that content, tx's twins included (credit).
// Replica 0 is the Fig. 6 observer: the first trace it reports for a
// transaction it received from the client (not only inside a block) is
// folded into the first four breakdown stages here; finish adds the fifth.
func (c *collector) confirm(replica int, tx *types.Transaction, success bool, st core.StageTrace) {
	k := c.lookup(tx)
	if k < 0 {
		return
	}
	c.confirmedAt[replica]++
	if m := &c.meta[k]; replica == 0 && m.observed == 0 && st.Submit != 0 && st.Received != 0 {
		m.observed = st.Confirmed
		b := c.res.Breakdown
		b.Add(metrics.StageSend, time.Duration(st.Received-st.Submit))
		b.Add(metrics.StagePreprocess, time.Duration(st.Proposed-st.Received))
		b.Add(metrics.StagePartial, time.Duration(st.Delivered-st.Proposed))
		b.Add(metrics.StageGlobal, time.Duration(st.Confirmed-st.Delivered))
	}
	for i := k; ; {
		c.credit(i, replica, tx, success, st.Confirmed)
		if i = int(c.meta[i].twin) - 1; i < 0 || i == k {
			break
		}
	}
	c.checkDrained() // a replica behind the client-visible reply, or the last one
}

// credit counts replica's reply, sent at confirmed, on record i: the
// (f+1)-th makes the submission client-visible.
func (c *collector) credit(i, replica int, tx *types.Transaction, success bool, confirmed types.Time) {
	m := &c.meta[i]
	if m.done {
		return
	}
	if m.replies++; m.replies > int32(c.f) {
		c.complete(i, tx, success, confirmed+types.Time(c.be.replyHop(replica, int(m.home))))
	}
}

// complete makes record i client-visible with its reply landing at reply:
// stamped on the record and counted in the tally OnWindow streams from.
func (c *collector) complete(i int, tx *types.Transaction, success bool, reply types.Time) {
	m := &c.meta[i]
	m.done, m.failed, m.reply = true, !success, reply
	c.done++
	c.tally.Add(time.Duration(m.reply), m.latency())
	if c.cfg.OnConfirm != nil {
		c.cfg.OnConfirm(tx, success, m.reply)
	}
}

// checkDrained calls drained once every submission has confirmed
// client-visibly and every replica that is up has confirmed each of them
// (a reused content is confirmed once), so a run stopped there ends with
// the live replicas' states equal.
func (c *collector) checkDrained() {
	if c.be.drained == nil || !c.clientDone || c.done < len(c.meta) {
		return
	}
	for id, n := range c.confirmedAt {
		if n < len(c.byID) && !c.net.Down(id) {
			return
		}
	}
	c.be.drained()
}

// emitWindows streams tally bins [windowsEmitted, upTo) to OnWindow, in
// order. A bin is final once the run's clock has passed its end.
func (c *collector) emitWindows(upTo int) {
	for i := c.windowsEmitted; i < upTo; i++ {
		c.cfg.OnWindow(c.tally.Window(i))
	}
	c.windowsEmitted = max(c.windowsEmitted, upTo)
}

// finish closes the books once the backend has stopped every replica (their
// state is read directly). A halted run counts only the replies that landed
// before the stop, in windows clamped to it.
func (c *collector) finish() *Result {
	cfg, res, stop := c.cfg, c.res, c.stop
	summarize(res, c.meta, cfg.Warmup, cfg.Duration, stop)
	// Bins not streamed mid-run — the partial bin past the last 0.5 s tick,
	// bins opened by replies landing after the end of the run, or all of
	// them when no tick ran — are closed now; emit them in order.
	if cfg.OnWindow != nil {
		c.emitWindows(len(res.Windows))
	}
	// Phases not streamed mid-run are emitted now, in order, except those
	// the stop preempted entirely.
	if pt := c.pt; pt != nil {
		res.Phases = make([]PhaseWindow, len(pt.windows))
		for i := range res.Phases {
			res.Phases[i] = pt.measure(i, c.meta, stop)
		}
		for i := pt.emitted; cfg.OnPhase != nil && i < len(res.Phases) && types.Time(pt.windows[i].Start) < stop; i++ {
			cfg.OnPhase(res.Phases[i])
		}
	}

	// Reply stage of the observer breakdown (Fig. 6; confirm folded in the
	// other four): what passed between the observer's confirmation and the
	// client-visible (f+1)-th reply, or the observer's own reply hop when it
	// completed the quorum (or nobody did).
	for i := range c.meta {
		m := &c.meta[i]
		if m.observed == 0 {
			continue
		}
		if m.done && m.reply > m.observed {
			res.Breakdown.Add(metrics.StageReply, time.Duration(m.reply-m.observed))
		} else {
			res.Breakdown.Add(metrics.StageReply, c.be.replyHop(0, int(m.home)))
		}
	}

	for _, r := range c.reps {
		res.StateTransferApplied += r.StateTransferApplied()
		res.EarlyProposals += r.EarlyProposals()
	}

	if cfg.CaptureState {
		res.State = c.reps[0].Store()
		snap := res.State.Snapshot()
		res.Converged = true
		for _, r := range c.reps[1:] {
			if !r.Store().Snapshot().Equal(snap) {
				res.Converged = false
				break
			}
		}
	}
	return res
}
