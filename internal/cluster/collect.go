package cluster

import (
	"time"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/types"
	"repro/internal/workload"
)

// txMeta tracks client-side accounting for one transaction. It is stored
// by value in a dense slice in submission order — no per-transaction
// pointer allocations.
type txMeta struct {
	submit   types.Time
	reply    types.Time // client-visible reply time; set when done
	observed types.Time // observer replica's confirm time; zero: no trace counted
	home     int32      // replica co-located with the submitting client
	replies  int32
	done     bool
}

// collector is the measurement half of a run, shared by every backend: it
// configures the replicas, keeps the client-side submission record, turns
// replica confirmations into client-visible ones (the (f+1)-th reply),
// bins them into the series, and closes the books into the Result; the
// scenario phases are measured from its client records. A backend (Run:
// the simulator; RunReal: transport.Proc) supplies each replica's clock and
// transport, the reply hop's delay, the client's pacing, and one-at-a-time
// delivery of the calls below — the collector takes no locks.
type collector struct {
	cfg     Config
	f       int
	res     *Result
	gen     workload.Source
	genesis func(*ledger.Store)
	pt      *phaseTracker // nil without a Scenario

	// replyHop is the delay of replica's reply to the client co-located
	// with replica home: modeled by the simulator, zero on real links.
	replyHop func(replica, home int) time.Duration

	meta []txMeta // in submission order
	// byID finds a transaction's record by its ID, the one identity a
	// transaction has. A reused ID points at its latest submission.
	byID map[types.TxID]int32
	done int // transactions confirmed client-visibly

	windowsEmitted int
}

// newCollector starts a run's books. cfg must already carry its defaults.
func newCollector(cfg Config, replyHop func(replica, home int) time.Duration) *collector {
	c := &collector{
		cfg: cfg, f: (cfg.N - 1) / 3, replyHop: replyHop,
		res: &Result{Protocol: cfg.Protocol.Name, Net: cfg.Net.String(), N: cfg.N,
			Series: metrics.NewTimeSeries(500 * time.Millisecond), Breakdown: &metrics.Breakdown{}},
		gen: cfg.Source,
	}
	// The books are sized once for the submission schedule — one transaction
	// per 1/LoadTPS from Warmup/2 through Duration, TotalTxs at most — so
	// the measured path neither regrows meta nor rehashes byID. A scenario's
	// load spike just appends past it, as does a schedule beyond the 1 Mi
	// entries reserved up front (a run that long may well be one a Halt cuts
	// short).
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
	// The series buffers are sized for the whole run up front so the
	// measurement path never reallocates them.
	runEnd := cfg.Duration + cfg.Drain
	c.res.Series.Reserve(int(runEnd/c.res.Series.Bin) + 2)
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
// with the measurement hooks attached; mk supplies the clock and transport,
// and rewraps OnConfirm and OnBlockDeliver when its engine would otherwise
// fire them concurrently (the collector and the user's observers expect
// one call at a time). Only replica 0 carries OnViewChange, and its
// counter is read after the run.
func (c *collector) replicas(mk func(i int, ccfg core.Config) *core.Replica) []*core.Replica {
	out := make([]*core.Replica, c.cfg.N)
	for i := range out {
		i := i
		ccfg := replicaConfig(c.cfg, i, c.genesis)
		ccfg.OnConfirm = func(tx *types.Transaction, success bool, st core.StageTrace) {
			c.confirm(i, tx, success, st)
		}
		if i == 0 {
			ccfg.OnViewChange = func(int, uint64, types.Time) { c.res.ViewChanges++ }
		}
		if c.cfg.OnBlockDeliver != nil {
			ccfg.OnBlockDeliver = func(instance int, b *types.Block) {
				c.cfg.OnBlockDeliver(i, instance, b)
			}
		}
		out[i] = mk(i, ccfg)
	}
	return out
}

// submit opens tx's client-side record, stamping its submission time; it
// returns the replica co-located with the client.
func (c *collector) submit(tx *types.Transaction, now types.Time) (home int) {
	home = len(c.meta) % c.cfg.N
	tx.SubmitNS = int64(now)
	c.byID[tx.ID()] = int32(len(c.meta))
	c.meta = append(c.meta, txMeta{submit: now, home: int32(home)})
	c.res.Submitted = len(c.meta)
	return home
}

// lookup returns tx's record, nil if this run never submitted it.
func (c *collector) lookup(tx *types.Transaction) *txMeta {
	if i, ok := c.byID[tx.ID()]; ok {
		return &c.meta[i]
	}
	return nil
}

// confirm is the client-side confirmation accounting: replica confirmed tx
// at st.Confirmed, and the (f+1)-th such reply makes it client-visible.
// Replica 0 is the Fig. 6 observer: the first trace it reports for a
// transaction it received from the client (not only inside a block) is
// folded into the first four breakdown stages here; finish adds the fifth.
func (c *collector) confirm(replica int, tx *types.Transaction, success bool, st core.StageTrace) {
	m := c.lookup(tx)
	if m == nil {
		return
	}
	if replica == 0 && m.observed == 0 && st.Submit != 0 && st.Received != 0 {
		m.observed = st.Confirmed
		b := c.res.Breakdown
		b.Add(metrics.StageSend, time.Duration(st.Received-st.Submit))
		b.Add(metrics.StagePreprocess, time.Duration(st.Proposed-st.Received))
		b.Add(metrics.StagePartial, time.Duration(st.Delivered-st.Proposed))
		b.Add(metrics.StageGlobal, time.Duration(st.Confirmed-st.Delivered))
	}
	if m.done {
		return
	}
	m.replies++
	if m.replies < int32(c.f+1) {
		return
	}
	m.done = true
	c.done++
	reply := st.Confirmed + types.Time(c.replyHop(replica, int(m.home)))
	m.reply = reply
	lat := time.Duration(reply - m.submit)
	res := c.res
	res.Latency.Add(lat)
	res.Series.Record(reply, lat)
	if !success {
		res.Aborted++
	}
	if reply >= types.Time(c.cfg.Warmup) && reply <= types.Time(c.cfg.Duration) {
		res.Confirmed++
	}
	if c.cfg.OnConfirm != nil {
		c.cfg.OnConfirm(tx, success, reply)
	}
}

// emitWindows streams series bins [windowsEmitted, upTo) to OnWindow, in
// order. A bin is final once the run's clock has passed its end.
func (c *collector) emitWindows(upTo int) {
	for i := c.windowsEmitted; i < upTo; i++ {
		c.cfg.OnWindow(c.res.Series.Window(i))
	}
	c.windowsEmitted = max(c.windowsEmitted, upTo)
}

// finish closes the books once the backend has stopped every replica (their
// state is read directly). elapsed, the run's clock at the stop, only
// matters to a halted run.
func (c *collector) finish(replicas []*core.Replica, elapsed time.Duration) *Result {
	cfg, res := c.cfg, c.res
	// A halted run measures only the elapsed time: divide the confirmations
	// by the window that actually ran, not the configured one, so partial
	// throughput is a rate and not a fraction of one.
	window := (cfg.Duration - cfg.Warmup).Seconds()
	if res.Halted && elapsed < cfg.Duration {
		window = (elapsed - cfg.Warmup).Seconds()
	}
	if window > 0 {
		res.ThroughputTPS = float64(res.Confirmed) / window
	}
	// Bins not streamed mid-run — the partial bin past the last 0.5 s tick,
	// bins opened by replies landing after the end of the run, or all of
	// them on a backend without a tick — are closed now; emit them in order.
	if cfg.OnWindow != nil {
		c.emitWindows(res.Series.Bins())
	}
	// Phases, measured from the client records. A halted run counts only the
	// replies that landed before the stop, in windows clamped to it; phases
	// not streamed mid-run are emitted now, in order, except those the stop
	// preempted entirely.
	if pt := c.pt; pt != nil {
		stop := forever
		if res.Halted {
			stop = types.Time(elapsed)
		}
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
			res.Breakdown.Add(metrics.StageReply, c.replyHop(0, int(m.home)))
		}
	}

	for _, r := range replicas {
		res.StateTransferApplied += r.StateTransferApplied()
	}

	if cfg.CaptureState {
		res.State = replicas[0].Store()
		snap := res.State.Snapshot()
		res.Converged = true
		for _, r := range replicas[1:] {
			if !r.Store().Snapshot().Equal(snap) {
				res.Converged = false
				break
			}
		}
	}
	return res
}
