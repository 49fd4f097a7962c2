package orthrus

import (
	"time"

	"repro/internal/cluster"
)

// TxInfo identifies one transaction in Observer callbacks.
type TxInfo struct {
	// ID is the transaction's content digest, as printed by Tx.ID.
	ID string
	// Kind is "payment" or "contract".
	Kind string
	// Client is the submitting account.
	Client string
	// Payers lists the accounts debited by the transaction.
	Payers []string
}

// Window is one closed 0.5 s measurement bin: confirmations whose
// client-visible reply landed in [Start, End), the resulting rate, and
// their mean latency. A run's full series is Result.Windows; an Observer
// streams them as they close. Fields: Index int; Start, End time.Duration;
// Confirmed int; ThroughputTPS float64; MeanLatency time.Duration. (The
// type is the harness's own, re-exported; docs/api/orthrus.txt lists the
// members of every such alias.)
type Window = cluster.WindowStat

// Phase is one scenario-delimited measurement window, labeled after the
// scenario events opening it ("baseline" for the first). Unlike the
// run-level throughput, phases do not exclude warmup — they measure the
// scenario's dynamics, not steady state. Fields: Label string; Start, End
// time.Duration; Confirmed int; ThroughputTPS float64; MeanLatency
// time.Duration.
type Phase = cluster.PhaseWindow

// Observer receives streaming callbacks while a run executes, replacing
// result-struct-only access: per-transaction confirmations, per-0.5 s
// metric windows, and per-scenario-phase windows the moment each closes.
// All times are virtual (since run start). Callbacks fire on the goroutine
// executing the run, in deterministic virtual-time order, and must not
// block or mutate the run; under RunMany, runs execute concurrently, so an
// observer shared between configurations must be safe for concurrent use.
// Use ObserverFuncs to implement a subset.
type Observer interface {
	// OnConfirm fires at every client-visible confirmation — the (f+1)-th
	// replica reply — with the reply's virtual arrival time. Success false
	// means the transaction confirmed as aborted.
	OnConfirm(tx TxInfo, success bool, at time.Duration)
	// OnWindow fires once per closed 0.5 s bin, in order, empty bins
	// included.
	OnWindow(w Window)
	// OnPhase fires once per scenario phase as soon as its window is
	// final; runs without a scenario never call it.
	OnPhase(p Phase)
}

// ObserverFuncs adapts free functions to the Observer interface; nil
// fields are simply skipped, so a caller can watch only confirmations,
// only windows, or any other subset.
type ObserverFuncs struct {
	Confirm func(tx TxInfo, success bool, at time.Duration)
	Window  func(w Window)
	Phase   func(p Phase)
}

// OnConfirm implements Observer.
func (o ObserverFuncs) OnConfirm(tx TxInfo, success bool, at time.Duration) {
	if o.Confirm != nil {
		o.Confirm(tx, success, at)
	}
}

// OnWindow implements Observer.
func (o ObserverFuncs) OnWindow(w Window) {
	if o.Window != nil {
		o.Window(w)
	}
}

// OnPhase implements Observer.
func (o ObserverFuncs) OnPhase(p Phase) {
	if o.Phase != nil {
		o.Phase(p)
	}
}
