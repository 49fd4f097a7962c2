// Package cluster is the experiment harness: it assembles n replicas of a
// chosen protocol, drives an open-loop client workload, and measures what
// the paper plots — throughput, client latency (submission to f+1
// replies), 0.5 s time series, and the five-stage latency breakdown.
//
// One collector (collect.go) does the configuration, the faults, the
// client and the measuring for every run; a backend supplies the engine.
// The collector stamps each client-visible reply on its transaction's
// client record, and every number a Result reports is read off those
// records by one reader (records.go): Confirmed, ThroughputTPS, the latency
// summary and Aborted read one set, the replies that landed in [Warmup,
// Duration]; each series bin and scenario phase reads its own.
// Every fault is a scenario.Event applied through one step, its link and
// endpoint half through package faultnet's decorator over the backend's
// network. Run (sim.go) executes inside the simulator's one event loop over
// a modeled WAN or LAN; RunReal (real.go) on real goroutines under
// wall-clock time, through one harness (runReal) that drives either real
// cluster: transport.Proc, RunReal's, or transport.Loopback's TCP sockets.
//
// Config describes a run. The engine knobs are the embedded core.Params,
// resolved once per run by withDefaults; Check and SimOnly are the
// harness's rules over the rest, in the shape (core.Violations) the
// public SDK's Validate reports. The public SDK re-exports the run-shape
// types declared here (NetProfile, WindowStat, PhaseWindow, LiveSetSample)
// by alias, so their exported fields and methods are public
// API: docs/api/orthrus.txt lists them and the surface gate diffs them.
package cluster

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/types"
	"repro/internal/workload"
)

// NetProfile selects the network environment.
type NetProfile int

// The two environments of Sec. VII-A.
const (
	WAN NetProfile = iota // 4 regions: France, US, Australia, Tokyo
	LAN                   // single site, 1 Gbps
)

// String implements fmt.Stringer.
func (p NetProfile) String() string {
	if p == LAN {
		return "LAN"
	}
	return "WAN"
}

// Config describes one experiment run.
type Config struct {
	N        int       // replicas (m = n instances)
	Protocol core.Mode // which Multi-BFT protocol
	Net      NetProfile

	// Stragglers slows this many instances by StragglerFactor (default 10x,
	// Sec. VII-A): their proposal pulses, and in the simulator everything
	// they send. Straggled replicas are chosen from the high indices.
	Stragglers      int
	StragglerFactor float64

	// CrashFaults crashes this many replicas at CrashAt (Fig. 7).
	CrashFaults int
	CrashAt     time.Duration
	// ByzantineFaults marks this many replicas Byzantine: they vote only
	// in the instance they lead (Fig. 8).
	ByzantineFaults int

	// Scenario schedules mid-run fault and load events (crashes that
	// recover, partitions that heal, moving stragglers, load surges) on top
	// of the static configuration above, on either backend; see package
	// scenario. When set, Result.Phases reports per-phase metric windows
	// delimited by the scenario's event times. Scenarios stop and restart
	// replicas and cut links, so a run with one simulates message-level
	// PBFT at every n. The Scenario is shared read-only across parallel
	// runs and must not be mutated after Build.
	Scenario *scenario.Scenario

	Workload workload.Config
	// Source overrides the synthetic generator with a custom transaction
	// source (e.g. a replayed trace, workload.ReadTrace); nil uses Workload.
	Source   workload.Source
	LoadTPS  float64       // open-loop submission rate
	TotalTxs int           // optional cap on submitted transactions
	Duration time.Duration // submission window
	Warmup   time.Duration // excluded from throughput accounting
	Drain    time.Duration // extra time for in-flight txs to confirm

	// Params are the engine knobs, the same on every replica (batching,
	// pipeline window, epoch length, timeouts, transaction size, censorship
	// patience). Lower CensorshipBlocks when a scenario censors leaders so
	// detection fits the run.
	core.Params

	// SampleLiveSet, when positive, schedules a cluster-wide retained-state
	// census every interval of virtual time: the sum of every replica's
	// core.LiveSet plus the scheduler's pending event count, reported in
	// Result.LiveSetSamples/LiveSetPeak. The soak figure gates on a flat
	// profile after warmup.
	SampleLiveSet time.Duration

	// NIC enables the 1 Gbps per-node egress model, the simulator's only
	// bandwidth charge: every send of a node serializes on one link, the
	// analytic SB's proposals included. Off, no bandwidth is charged.
	NIC bool

	Seed int64

	// Observation hooks stream measurements out of a running cluster (the
	// public orthrus SDK's Observer rides on these). All are optional, and
	// on every backend the collector calls them one at a time; they must
	// only read, never mutate the cluster. In the simulator they fire on
	// the simulation goroutine in deterministic virtual-time order, and
	// OnWindow and Halt schedule one bookkeeping event per 0.5 s of virtual
	// time, so Result.Events grows slightly when either is set; measured
	// results are unaffected. On the real backend they fire under the
	// harness's lock in wall-clock order; a reply a replica stamped just
	// before a window's end but reported after it misses the streamed copy.

	// OnConfirm fires at every client-visible confirmation (the (f+1)-th
	// reply), with the reply's arrival time.
	OnConfirm func(tx *types.Transaction, success bool, reply types.Time)
	// OnWindow fires once per closed 0.5 s series bin, in order, including
	// empty bins, as each closes.
	OnWindow func(w WindowStat)
	// OnPhase fires once per scenario phase as soon as its measurement
	// window is final — mid-run for phases that close before the run ends,
	// at finalization for the rest. Requires a Scenario.
	OnPhase func(p PhaseWindow)
	// OnBlockDeliver fires on every worker-instance block delivery at every
	// replica, before execution. The safety property suite records
	// (replica, instance, SN, digest) through it; nil costs nothing.
	OnBlockDeliver func(replica, instance int, b *types.Block)
	// Halt is polled at every 0.5 s window boundary of the run's clock;
	// returning true stops the run at that boundary (Result.Halted), and
	// the Result covers only the replies that landed before it. The public
	// SDK wires context cancellation here.
	Halt func() bool
	// CaptureState retains the observer replica's ledger store on the
	// Result and checks that all replicas' final snapshots agree. Only
	// meaningful for fault-free runs: a crashed or partitioned replica
	// misses blocks until catch-up repairs the gap, and reports divergence
	// if the run ends first.
	CaptureState bool
}

// withDefaults resolves the run's knobs once: the harness's own, and the
// engine Params that the simulated client hop, the analytic SB and every
// replica then read the same values of.
func (c Config) withDefaults() Config {
	c.Params = c.Params.WithDefaults()
	if c.StragglerFactor <= 0 {
		c.StragglerFactor = 10
	}
	if c.Duration <= 0 {
		c.Duration = 20 * time.Second
	}
	if c.Warmup <= 0 {
		c.Warmup = 2 * time.Second
	}
	if c.Drain <= 0 {
		c.Drain = 2 * c.Duration
	}
	if c.LoadTPS <= 0 {
		c.LoadTPS = 1000
	}
	return c
}

// Check lists the run-shape knobs of c that are out of range, each under
// the public SDK's name for the field — the one statement of these rules:
// the SDK's Validate reports them all as typed errors, and Run and RunReal
// panic on the first (checked). withDefaults reads a non-positive value as
// unset, so this looks at c before it.
func (c Config) Check() (out core.Violations) {
	const nonNeg = "must be non-negative, got %v"
	n := c.N
	out.Add(n < 1, "Replicas", "need at least 1 replica, got %d", n)
	out.Add(c.Net != WAN && c.Net != LAN, "Net", "must be WAN or LAN, got Net(%d)", int(c.Net))
	out.Add(c.Stragglers < 0, "Stragglers", nonNeg, c.Stragglers)
	out.Add(n >= 1 && c.Stragglers > n, "Stragglers", "%d stragglers exceed %d replicas", c.Stragglers, n)
	out.Add(!within(c.StragglerFactor, 0, scenario.MaxStraggle), "StragglerFactor", "must be in [0, %g] (0 means the default 10x), got %g", scenario.MaxStraggle, c.StragglerFactor)
	out.Add(c.CrashFaults < 0, "CrashFaults", nonNeg, c.CrashFaults)
	out.Add(n >= 1 && c.CrashFaults >= n, "CrashFaults", "crashing %d of %d replicas leaves no observer", c.CrashFaults, n)
	out.AddSpan("CrashAt", c.CrashAt, core.MaxSpan)
	out.Add(c.ByzantineFaults < 0, "ByzantineFaults", nonNeg, c.ByzantineFaults)
	out.Add(n >= 1 && c.ByzantineFaults >= n, "ByzantineFaults", "%d Byzantine replicas exceed %d-replica cluster", c.ByzantineFaults, n)
	out.AddSpan("Duration", c.Duration, core.MaxSpan)
	out.AddSpan("Warmup", c.Warmup, core.MaxSpan)
	out.AddSpan("Drain", c.Drain, core.MaxSpan)
	out.AddLoad("LoadTPS", c.LoadTPS)
	out.Add(c.TotalTxs < 0, "TotalTxs", nonNeg, c.TotalTxs)
	out.Add(c.Workload.Accounts < 0, "Accounts", nonNeg, c.Workload.Accounts)
	out.Add(!within(c.Workload.PaymentFraction, -math.MaxFloat64, 1), "PaymentFraction", "must be finite and at most 1, got %g", c.Workload.PaymentFraction)
	out.Add(c.SampleLiveSet < 0, "SampleLiveSet", nonNeg, c.SampleLiveSet)
	if c.Scenario != nil && n >= 1 {
		err := c.Scenario.Validate(n)
		out.Add(err != nil, "Scenario", "%v", err)
		// A surge paces the client at the run's rate × its multiplier, a
		// product that must not underflow to 0 and pass as "no client".
		for _, e := range c.Scenario.Events {
			if err == nil && e.Kind == scenario.LoadSurge {
				out.AddLoad("Scenario", max(c.withDefaults().LoadTPS*e.Scale, math.SmallestNonzeroFloat64))
			}
		}
	}
	return out
}

// within reports lo <= x <= hi. The float rules go through it (the load
// rule, core.Violations.AddLoad, is written the same way round) so that a
// NaN, which fails every comparison, fails them — written as x < lo it would
// pass and reach the run (a NaN payment fraction runs an all-contract
// workload).
func within(x, lo, hi float64) bool { return x >= lo && x <= hi }

// checked returns c with its defaults resolved, or panics on the first rule
// c breaks: Check's, then the calling backend's own list.
func (c Config) checked(backend core.Violations) Config {
	if bad := append(c.Check(), backend...); len(bad) > 0 {
		panic("cluster: invalid " + bad[0].Field + ": " + bad[0].Reason)
	}
	return c.withDefaults()
}

// SimOnly lists the knobs set on c that cannot exist on real links: a
// modeled NIC and a census taken between two simulator events. RunReal
// panics on the first; the public SDK's Validate reports them all as typed
// errors against the Transport field.
func (c Config) SimOnly() (out core.Violations) {
	const field = "Transport"
	out.Add(c.NIC, field, "the NIC bandwidth model is simulation-only; the real transport measures real links")
	out.Add(c.SampleLiveSet > 0, field, "live-set sampling walks every replica from a simulator event; the real transport does not support it")
	return out
}

// AnalyticFrom is the cluster size from which Run simulates the
// closed-form quorum-time SB (package sb) instead of message-level PBFT:
// with m = n instances, message-level PBFT costs O(n^3) messages per block
// round, which the figures' large cells cannot afford.
const AnalyticFrom = 32

// analytic reports whether Run simulates c with the analytic SB: from
// AnalyticFrom replicas up, on a run with no crash, no Byzantine replica
// and no scenario, none of which the closed form models. Stragglers it
// does model.
func (c Config) analytic() bool {
	return c.N >= AnalyticFrom && c.CrashFaults == 0 && c.ByzantineFaults == 0 && c.Scenario == nil
}

// Result aggregates one run's measurements.
type Result struct {
	Protocol string
	Net      string
	N        int

	// Submitted counts submissions. Confirmed, Aborted, ThroughputTPS and
	// Latency read one set: the client-visible confirmations (the (f+1)-th
	// reply) that landed in the closed window [Warmup, Duration]. Aborted
	// counts those that report an abort. Unconfirmed counts the
	// submissions with no client-visible reply before the stop.
	Submitted   int
	Confirmed   int
	Aborted     int
	Unconfirmed int

	// ThroughputTPS is Confirmed divided by Duration - Warmup.
	ThroughputTPS float64
	// Latency summarizes the client-observed latency of the window's
	// replies: submission to the (f+1)-th reply, including the reply's
	// network delay. A submission of a content that already completed
	// client-visibly is answered from that content's replies when it is
	// submitted, at latency 0. Count equals Confirmed.
	Latency metrics.Summary
	// Windows bins every reply before the stop, the drain's included, over
	// 0.5 s intervals by landing time (Fig. 7), up to the last bin with a
	// reply.
	Windows []WindowStat
	// Breakdown is the observer replica's five-stage split (Fig. 6).
	Breakdown *metrics.Breakdown

	// Phases holds per-phase metric windows when a Scenario is configured:
	// one window per scenario phase (see scenario.Scenario.Phases), nil
	// otherwise.
	Phases []PhaseWindow

	ViewChanges int
	Events      uint64 // simulator events processed (cost accounting)
	// Messages counts protocol messages the network carried; one a fault
	// drops in flight still counts, one it drops at send does not.
	// Analytic-SB runs fold in the closed-form model's
	// pre-prepare/prepare/commit traffic (simnet.Network.AddModeled), so
	// the count stays comparable across SB implementations; the F-scale
	// figure divides it by Confirmed for messages-per-commit.
	Messages uint64

	// LiveSetSamples holds the periodic retained-state censuses when
	// Config.SampleLiveSet is set (nil otherwise), and LiveSetPeak the
	// largest sampled Total. The soak harness asserts the profile flattens
	// after warmup — bounded memory at any virtual-time horizon.
	LiveSetSamples []LiveSetSample
	LiveSetPeak    int

	// StateTransferApplied counts blocks applied through the checkpoint-
	// anchored catch-up protocol rather than live SB delivery, summed
	// across replicas (0 unless some replica had a gap to repair). The
	// recovery tests assert gap repair happened without pre-checkpoint
	// replay.
	StateTransferApplied uint64
	// EarlyProposals counts the blocks proposed when a leader's instance
	// drained, ahead of its pulse (core.Replica.EarlyProposals), summed
	// across replicas.
	EarlyProposals uint64

	// Halted reports the run was stopped early by Config.Halt, at the 0.5 s
	// boundary whose poll returned true. Every count, rate and window
	// covers only the replies that landed before the stop, and
	// ThroughputTPS divides by the part of [Warmup, Duration] before it.
	Halted bool
	// State is the observer replica's final ledger store and Converged
	// whether every replica's final snapshot equals it. Both are only set
	// when Config.CaptureState is true.
	State     *ledger.Store
	Converged bool
}

// WindowStat is one closed 0.5 s series bin (an entry of Result.Windows),
// streamed to Config.OnWindow as it closes.
type WindowStat = metrics.WindowStat

// PhaseWindow is one scenario-delimited measurement window: raw
// confirmation counts and rates between two consecutive event times (the
// last window extends to the end of the run, submission plus drain).
// Unlike the run-level ThroughputTPS, phases do not exclude warmup and
// count every confirmation by its client-visible reply time — they measure
// the scenario's dynamics, not steady state.
type PhaseWindow struct {
	// Label names the phase after the scenario events opening it
	// ("baseline" for the first window).
	Label string
	// Start and End bound the window in virtual time since run start.
	Start, End time.Duration
	// Confirmed counts client-visible confirmations whose reply landed in
	// the window.
	Confirmed int
	// ThroughputTPS is Confirmed divided by the window length.
	ThroughputTPS float64
	// MeanLatency averages the client-observed latency of the window's
	// confirmations (0 if none).
	MeanLatency time.Duration
}

// LiveSetSample is one cluster-wide retained-state census: the categories
// checkpoint GC is responsible for bounding (summed across replicas) plus
// the scheduler's pending event count, taken at one instant of virtual
// time. Total sums every category; the soak figure plots it.
type LiveSetSample struct {
	At        time.Duration // virtual time of the census
	Events    int           // scheduler events pending
	Trackers  int           // transaction trackers retained
	Slots     int           // in-flight pbft slots
	ExecQ     int           // delivered blocks awaiting escrow
	GlogQ     int           // confirmed blocks awaiting execution
	Escrows   int           // live escrow-log entries
	Archive   int           // delivered blocks the SB instances' logs hold
	CkptVotes int           // live checkpoint votes
	Total     int           // all of the above
}
