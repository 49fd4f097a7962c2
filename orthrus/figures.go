package orthrus

import (
	"context"
	"fmt"
	"io"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/workload"
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
func ScenarioPresets() []string { return experiments.ScenarioNames() }

// AttackPresets lists the S2 adversary suite's Byzantine attack preset
// names in figure order (see also scenariodsl.AttackPresets).
func AttackPresets() []string { return experiments.AttackNames() }

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

// RunFigures reproduces the selected evaluation figures (see Figures) and
// returns one FigureResult per id, in the order requested. Unknown figure
// ids, unknown scenario names and out-of-range scales error before
// anything runs. The figure suite checks ctx only before starting — a
// started suite runs to completion.
func RunFigures(ctx context.Context, ids []string, o FigureOptions) ([]FigureResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	scale, err := figureScale(o.Scale)
	if err != nil {
		return nil, err
	}
	return experiments.RunScenarios(ids, o.Scenarios, runner.Options{Workers: o.Workers}, scale)
}

// figureScale resolves a figure entry point's scale argument: 0 (the zero
// value) means 1, and anything else outside (0, 1] is rejected — results
// must record the scale they actually ran at.
func figureScale(scale float64) (float64, error) {
	if scale == 0 {
		return 1, nil
	}
	if scale < 0 || scale > 1 {
		return 0, fmt.Errorf("%w: %w", ErrInvalidConfig,
			&ValidationError{Field: "Scale", Reason: fmt.Sprintf("must be in (0,1], got %g", scale)})
	}
	return scale, nil
}

// XValID identifies the sim-vs-real cross-validation figure, which runs
// outside the deterministic suite (see RunXVal); FigureIDs never lists it
// and "all" selections never include it.
const XValID = experiments.XValID

// XValInfo names the cross-validation figure for listings, alongside the
// Figures entries.
func XValInfo() FigureInfo { return experiments.XValInfo() }

// RunXVal runs the sim-vs-real cross-validation figure: each (protocol,
// cluster size) cell once through the discrete-event simulator and once
// over the in-process real transport under the identical configuration,
// returning the two measurements side by side. Unlike RunFigures results,
// the real-measured table holds wall-clock numbers from this machine —
// they vary run to run, which is why this figure lives outside the
// deterministic suite and always runs its cells serially. Ctx is checked
// only before starting; a started figure runs to completion.
func RunXVal(ctx context.Context, scale float64) (FigureResult, error) {
	if err := ctx.Err(); err != nil {
		return FigureResult{}, err
	}
	scale, err := figureScale(scale)
	if err != nil {
		return FigureResult{}, err
	}
	return experiments.XVal(scale)
}

// SoakID identifies the long-horizon soak figure, which runs outside the
// deterministic suite (see RunSoak); FigureIDs never lists it and "all"
// selections never include it.
const SoakID = experiments.SoakID

// SoakInfo names the soak figure for listings, alongside the Figures
// entries.
func SoakInfo() FigureInfo { return experiments.SoakInfo() }

// RunSoak runs the long-horizon soak figure: one WAN cell with state
// transfer on under continuous crash/recover churn, an hour of virtual
// time over n = 100 replicas at full scale, sampling the cluster-wide
// retained-state census throughout. The figure's acceptance signal is the
// census staying flat after warmup — checkpoint GC bounding memory at any
// virtual-time horizon. The cell needs the serial kernel (live-set
// sampling) and hours of virtual time, which is why it lives outside the
// deterministic suite. Ctx is checked only before starting; a started
// figure runs to completion.
func RunSoak(ctx context.Context, scale float64) (FigureResult, error) {
	if err := ctx.Err(); err != nil {
		return FigureResult{}, err
	}
	scale, err := figureScale(scale)
	if err != nil {
		return FigureResult{}, err
	}
	return experiments.Soak(scale)
}

// WriteSyntheticTrace freezes n transactions of the synthetic
// Ethereum-like workload (46% payments, Zipf-skewed accounts) into the CSV
// trace format, for replay with WithTrace — the paper's reset-and-replay
// methodology. Accounts sizes the account population (0 takes the
// workload default); equal arguments always produce the same trace.
func WriteSyntheticTrace(w io.Writer, n int, accounts int, seed int64) error {
	// The trace format encodes single-caller contracts only.
	gen := workload.New(workload.Config{Seed: seed, Accounts: accounts, ContractCallers: 1})
	return gen.Export(w, n)
}
