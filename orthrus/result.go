package orthrus

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/types"
)

// Latency summarizes the client-observed latency distribution of a run:
// submission to the (f+1)-th replica reply, including the reply's network
// delay. Fields: Count int; Mean, P50, P99, Max time.Duration. Its String
// method renders the summary compactly.
type Latency = metrics.Summary

// StageLatency is one stage of the five-stage latency breakdown (Fig. 6),
// measured at the observer replica.
type StageLatency struct {
	Stage string
	Mean  time.Duration
}

// Result aggregates one run's measurements. Runs are deterministic: the
// same Config (including Seed) always produces the same Result.
type Result struct {
	// Protocol, Net and Replicas echo the configuration that ran.
	Protocol string
	Net      string
	Replicas int

	// Submitted counts submissions. Confirmed, Aborted, ThroughputTPS and
	// Latency read one set: the client-visible confirmations (the (f+1)-th
	// reply) that landed in the measured window [warmup, duration], both
	// ends included. Aborted counts those that report an abort.
	Submitted int
	Confirmed int
	Aborted   int

	// ThroughputTPS is Confirmed over the measured window's length,
	// duration minus warmup.
	ThroughputTPS float64
	// Latency is the client-observed latency distribution of Confirmed's
	// replies; its Count equals Confirmed, and a run with no reply in the
	// window has a zero Latency.
	Latency Latency
	// Windows bins every client-visible reply, the drain's included, over
	// 0.5 s intervals by landing time (Fig. 7's series), up to the last bin
	// with a reply; their Confirmed counts sum to the run's replies.
	Windows []Window
	// Breakdown is the observer replica's five-stage latency split, in
	// stage order (Fig. 6).
	Breakdown []StageLatency
	// Phases holds the scenario-delimited measurement windows when the run
	// had a Scenario, nil otherwise.
	Phases []Phase

	// ViewChanges counts view changes seen by the observer replica, and
	// SimEvents the discrete-event simulator's processed events (a cost
	// measure; observers and cancellable contexts add bookkeeping events).
	// On TransportProc, which has no simulator, SimEvents counts the timers
	// the replicas fired.
	ViewChanges int
	SimEvents   uint64

	// LiveSetSamples holds the periodic retained-state censuses when the
	// run sampled them (WithLiveSetSampling), nil otherwise, and
	// LiveSetPeak the largest sampled Total — the soak harness's
	// bounded-memory signal.
	LiveSetSamples []LiveSetSample
	LiveSetPeak    int

	// StateTransferApplied counts blocks applied through the checkpoint-
	// anchored catch-up protocol rather than live SB delivery, summed
	// across replicas — 0 unless some replica had a gap to repair.
	StateTransferApplied uint64

	// Halted reports the run was stopped early by context cancellation, at
	// the first 0.5 s boundary of the run's clock that saw it. Every count,
	// rate and window then covers only the replies that landed before that
	// stop, and ThroughputTPS divides by the part of the measured window
	// before it.
	Halted bool
	// Converged reports whether every replica's final ledger snapshot
	// agreed (only computed under WithFinalState).
	Converged bool

	state *ledger.Store
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%-8s %s n=%-3d tput=%8.1f tps  lat(%s)  confirmed=%d aborted=%d vc=%d",
		r.Protocol, r.Net, r.Replicas, r.ThroughputTPS, r.Latency.String(), r.Confirmed, r.Aborted, r.ViewChanges)
}

// Balance returns an account's final balance at the observer replica.
// It requires WithFinalState; without it every account reads as 0.
func (r *Result) Balance(account string) int64 {
	if r.state == nil {
		return 0
	}
	return int64(r.state.Balance(types.Key(account)))
}

// SharedValue returns a shared record's final value at the observer
// replica. It requires WithFinalState; without it every record reads as 0.
func (r *Result) SharedValue(key string) int64 {
	if r.state == nil {
		return 0
	}
	return int64(r.state.SharedValue(types.Key(key)))
}

// EscrowsOutstanding returns the number of escrow entries still open at
// the observer replica when the run ended — 0 means no funds were left
// stuck by aborted multi-payer transactions. It requires WithFinalState.
func (r *Result) EscrowsOutstanding() int {
	if r.state == nil {
		return 0
	}
	return r.state.EscrowCount()
}

// LiveSetSample is one cluster-wide retained-state census: the state
// categories checkpoint GC is responsible for bounding, summed across
// replicas, plus the scheduler's pending event count, at one instant of
// virtual time since run start. Fields: At time.Duration (the census
// time), then the int counts Events (scheduler events pending), Trackers
// (transaction trackers retained), Slots (in-flight pbft slots), ExecQ
// (delivered blocks awaiting escrow), GlogQ (confirmed blocks awaiting
// execution), Escrows (live escrow-log entries), Archive (delivered blocks
// the SB instances' logs hold for catch-up and NewView repair), CkptVotes
// (live checkpoint votes) and Total (all of the above).
type LiveSetSample = cluster.LiveSetSample

// fromCluster projects an internal run result onto the public surface.
func fromCluster(res *cluster.Result) *Result {
	out := &Result{
		Protocol:      res.Protocol,
		Net:           res.Net,
		Replicas:      res.N,
		Submitted:     res.Submitted,
		Confirmed:     res.Confirmed,
		Aborted:       res.Aborted,
		ThroughputTPS: res.ThroughputTPS,
		Latency:       res.Latency,
		Windows:       res.Windows,
		ViewChanges:   res.ViewChanges,
		SimEvents:     res.Events,
		Halted:        res.Halted,
		Converged:     res.Converged,
		state:         res.State,
	}
	for _, s := range metrics.Stages() {
		out.Breakdown = append(out.Breakdown, StageLatency{Stage: s.String(), Mean: res.Breakdown.Mean(s)})
	}
	out.Phases, out.LiveSetSamples = res.Phases, res.LiveSetSamples
	out.LiveSetPeak = res.LiveSetPeak
	out.StateTransferApplied = res.StateTransferApplied
	return out
}
