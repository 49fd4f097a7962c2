package orthrus

import (
	"context"
	"fmt"
	"io"

	"repro/internal/experiments"
	"repro/internal/workload"
	"repro/orthrus/scenariodsl"
)

// FigureResult is the structured, JSON-serializable outcome of one
// evaluation figure: every number the figure plots, with a Render method
// for the text form. It aliases the internal experiments result so the
// JSON artifact schema (orthrus-bench/v2) is byte-for-byte the same
// through the public API, serial or parallel.
type FigureResult = experiments.FigureResult

// FigureInfo names one reproducible figure for listings (an alias of the
// internal experiments type, like FigureResult).
type FigureInfo = experiments.FigureInfo

// Figures lists every reproducible evaluation figure in render order.
func Figures() []FigureInfo { return experiments.Figures() }

// FigureIDs lists the supported figure identifiers in render order.
func FigureIDs() []string { return experiments.FigureIDs() }

// ScenarioPresets lists the S1 scenario suite's preset names in figure
// order (see also scenariodsl.Presets).
func ScenarioPresets() []string { return scenariodsl.Presets() }

// AttackPresets lists the S2 adversary suite's Byzantine attack preset
// names in figure order (see also scenariodsl.AttackPresets).
func AttackPresets() []string { return scenariodsl.AttackPresets() }

// FigureOptions tunes a RunFigures call.
type FigureOptions struct {
	// Scenarios restricts the S1 scenario suite to the named presets; nil
	// or empty selects all of them. Other figures are unaffected.
	Scenarios []string
	// Workers is the worker pool size shared across the whole suite: 0
	// uses all cores, 1 runs serially. Results are identical either way.
	Workers int
	// Scale in (0, 1] shrinks run durations, loads and the replica-count
	// axis proportionally; 1 is the full paper-sized configuration and 0
	// (the zero value) means 1. Any other value is rejected — results must
	// record the scale they actually ran at.
	Scale float64
}

// RunFigures reproduces the selected evaluation figures — any of Figures,
// XValID and SoakID — and returns one FigureResult per id, in the order
// requested. Unknown figure ids, unknown scenario names and out-of-range
// scales error before anything runs. Every selected figure's simulated
// runs share the worker pool; X-val's real-transport cells run one at a
// time after it has drained. The figure suite checks ctx only before
// starting — a started suite runs to completion.
func RunFigures(ctx context.Context, ids []string, o FigureOptions) ([]FigureResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	scale, err := experiments.Scale(o.Scale)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", err, &ValidationError{Field: "Scale", Reason: fmt.Sprintf("got %g", o.Scale)})
	}
	return experiments.Run(ids, o.Scenarios, o.Workers, scale)
}

// runFigure is RunFigures for one id at the default pool size.
func runFigure(ctx context.Context, id string, scale float64) (FigureResult, error) {
	res, err := RunFigures(ctx, []string{id}, FigureOptions{Scale: scale})
	if err != nil {
		return FigureResult{}, err
	}
	return res[0], nil
}

// XValID identifies the sim-vs-real cross-validation figure, which stays
// outside the deterministic suite (see RunXVal); FigureIDs never lists it
// and "all" selections never include it, but RunFigures accepts it.
const XValID = experiments.XValID

// XValInfo names the cross-validation figure for listings, alongside the
// Figures entries.
func XValInfo() FigureInfo { return experiments.Info(XValID) }

// RunXVal runs the sim-vs-real cross-validation figure: each (protocol,
// cluster size) cell once through the discrete-event simulator and once
// over the in-process real transport under the identical configuration,
// returning the two measurements side by side. Unlike the suite's results,
// the real-measured table holds wall-clock numbers from this machine —
// they vary run to run, which is why this figure lives outside the
// deterministic suite and always runs its real cells serially. Equivalent
// to RunFigures with XValID alone.
func RunXVal(ctx context.Context, scale float64) (FigureResult, error) {
	return runFigure(ctx, XValID, scale)
}

// SoakID identifies the long-horizon soak figure, which stays outside the
// deterministic suite (see RunSoak); FigureIDs never lists it and "all"
// selections never include it, but RunFigures accepts it.
const SoakID = experiments.SoakID

// SoakInfo names the soak figure for listings, alongside the Figures
// entries.
func SoakInfo() FigureInfo { return experiments.Info(SoakID) }

// RunSoak runs the long-horizon soak figure: one WAN cell with state
// transfer on under continuous crash/recover churn, an hour of virtual
// time over n = 100 replicas at full scale, sampling the cluster-wide
// retained-state census throughout. The figure's acceptance signal is the
// census staying flat after warmup — checkpoint GC bounding memory at any
// virtual-time horizon. The cell needs hours of virtual time, which is why
// it lives outside the deterministic suite. Equivalent to RunFigures with
// SoakID alone.
func RunSoak(ctx context.Context, scale float64) (FigureResult, error) {
	return runFigure(ctx, SoakID, scale)
}

// WriteSyntheticTrace freezes n transactions of the synthetic
// Ethereum-like workload (46% payments, Zipf-skewed accounts) into the CSV
// trace format, for replay with WithTrace — the paper's reset-and-replay
// methodology. Accounts sizes the account population (0 takes the
// workload default); equal arguments always produce the same trace.
func WriteSyntheticTrace(w io.Writer, n int, accounts int, seed int64) error {
	gen := workload.New(workload.Config{Seed: seed, Accounts: accounts})
	return gen.Export(w, n)
}
