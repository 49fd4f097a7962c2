// Package experiments defines one runnable configuration per table/figure
// of the paper's evaluation (Sec. VII). Each figure is one catalogue entry
// (figures.go): an id, a title and a plan — declarative lists of
// independent cluster.Config runs plus a pure assembler that turns the
// measured results into a JSON-serializable FigureResult; rendering to
// text is separate (render.go). Run executes them, simulated runs through
// internal/runner, so a figure — or the whole suite — fans out across
// every core while producing results identical to a serial sweep. Both
// cmd/orthrus-bench and the repository's benchmark suite call into it, so
// the numbers in EXPERIMENTS.md regenerate from one place.
//
// Scale: every experiment takes a scale in (0, 1] (see Scale); 1 runs the
// full configuration (all replica counts up to 128, paper durations),
// smaller values shrink durations and loads proportionally so the suite
// stays laptop-friendly. cluster.Run picks the SB: fault-free cells from
// cluster.AnalyticFrom (32) replicas up run the analytic SB (validated
// against message-level PBFT in internal/sb and internal/cluster); fault
// experiments run message-level PBFT at n = 16.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// Scale resolves an experiment scale, and is the one statement of the
// rule: 0 (the zero value) means 1, anything else must lie in (0, 1] or is
// an error wrapping errs.ErrInvalidConfig. Nothing is clamped — a result
// must record the scale it actually ran at. Run applies it once, before
// any plan is built.
func Scale(s float64) (float64, error) {
	switch {
	case s == 0:
		return 1, nil
	case s > 0 && s <= 1: // written this way round so that NaN fails it
		return s, nil
	}
	return 0, fmt.Errorf("%w: experiments: scale must be in (0,1], got %g", errs.ErrInvalidConfig, s)
}

// replicaCounts returns the paper's x-axis {8,16,32,64,128}, trimmed under
// small scales to keep quick runs quick.
func replicaCounts(scale float64) []int {
	all := []int{8, 16, 32, 64, 128}
	switch {
	case scale >= 1:
		return all
	case scale >= 0.5:
		return all[:4]
	case scale >= 0.25:
		return all[:3]
	default:
		return all[:2]
	}
}

// loadFor models the per-size saturation load: bandwidth-bound Multi-BFT
// capacity declines gently with n (every replica ingests all m instances'
// blocks). LAN roughly doubles WAN capacity, as in Figs. 3 vs 4.
func loadFor(n int, net cluster.NetProfile, scale float64) float64 {
	base := 50000.0 / (1 + float64(n)/64.0)
	if net == cluster.LAN {
		base *= 2
	}
	return base * scale
}

// baseConfig assembles the shared experiment parameters of Sec. VII-A.
func baseConfig(mode core.Mode, n int, net cluster.NetProfile, scale float64) cluster.Config {
	dur := time.Duration(float64(20*time.Second) * scale)
	if dur < 4*time.Second {
		dur = 4 * time.Second
	}
	return cluster.Config{
		N:        n,
		Protocol: mode,
		Net:      net,
		Workload: workload.Config{Seed: 42},
		LoadTPS:  loadFor(n, net, scale),
		Duration: dur,
		Warmup:   dur / 5,
		Drain:    2 * dur,
		Params: core.Params{
			BatchSize:    4096,
			BatchTimeout: 100 * time.Millisecond,
			EpochLen:     256,
			ViewTimeout:  10 * time.Second,
		},
		NIC:  true,
		Seed: 42,
	}
}

// Row is one data point of a throughput/latency sweep: its throughput and
// latencies read the same replies, those that landed in the run's window
// (cluster.Result), and a row with none has zero latency. Unconfirmed
// counts the submissions that got no reply before the run stopped.
// MsgsPerCommit is only populated by the F-scale figure (protocol messages
// delivered per client-visible confirmation; analytic-SB cells fold in the
// closed-form model's traffic). Both are omitted when zero — additive
// orthrus-bench/v2 schema extensions.
type Row struct {
	Protocol      string  `json:"protocol"`
	N             int     `json:"n"`
	Stragglers    int     `json:"stragglers"`
	TputKTPS      float64 `json:"tput_ktps"`
	LatencyS      float64 `json:"latency_s"`
	P99S          float64 `json:"p99_s"`
	Unconfirmed   int     `json:"unconfirmed,omitempty"`
	MsgsPerCommit float64 `json:"msgs_per_commit,omitempty"`
}

func toRow(res *cluster.Result, stragglers int) Row {
	return Row{
		Protocol:    res.Protocol,
		N:           res.N,
		Stragglers:  stragglers,
		TputKTPS:    res.ThroughputTPS / 1000,
		LatencyS:    res.Latency.Mean.Seconds(),
		P99S:        res.Latency.P99.Seconds(),
		Unconfirmed: res.Unconfirmed,
	}
}

// BreakdownResult carries a five-stage latency split for one protocol.
// Stage durations marshal as nanoseconds.
type BreakdownResult struct {
	Protocol string                   `json:"protocol"`
	Stages   map[string]time.Duration `json:"stages_ns"`
	Total    time.Duration            `json:"total_ns"`
}

func toBreakdown(res *cluster.Result) BreakdownResult {
	out := BreakdownResult{Protocol: res.Protocol, Stages: map[string]time.Duration{}}
	for _, s := range metrics.Stages() {
		out.Stages[s.String()] = res.Breakdown.Mean(s)
	}
	out.Total = res.Breakdown.Total()
	return out
}

// SeriesResult is a Fig. 7 time series for one fault count.
type SeriesResult struct {
	Faults     int       `json:"faults"`
	TimeS      []float64 `json:"time_s"`
	TputKTPS   []float64 `json:"tput_ktps"`
	LatencyS   []float64 `json:"latency_s"`
	ViewChange int       `json:"view_changes"`
}

func toSeries(res *cluster.Result, faults int) SeriesResult {
	out := SeriesResult{Faults: faults, ViewChange: res.ViewChanges}
	for _, w := range res.Windows {
		out.TimeS = append(out.TimeS, w.Start.Seconds())
		out.TputKTPS = append(out.TputKTPS, w.ThroughputTPS/1000)
		out.LatencyS = append(out.LatencyS, w.MeanLatency.Seconds())
	}
	return out
}

// PhaseStat is one scenario-delimited measurement window of a
// ScenarioResult: raw confirmation rate and latency between two scenario
// event times (see cluster.PhaseWindow).
type PhaseStat struct {
	Label     string  `json:"label"`
	StartS    float64 `json:"start_s"`
	EndS      float64 `json:"end_s"`
	Confirmed int     `json:"confirmed"`
	TputKTPS  float64 `json:"tput_ktps"`
	LatencyS  float64 `json:"latency_s"`
}

// ScenarioResult is one (scenario, protocol) cell of the S1 suite:
// run-level throughput/latency plus the per-phase windows that show the
// dynamics around each scenario event.
type ScenarioResult struct {
	Scenario    string      `json:"scenario"`
	Protocol    string      `json:"protocol"`
	TputKTPS    float64     `json:"tput_ktps"`
	LatencyS    float64     `json:"latency_s"`
	ViewChanges int         `json:"view_changes"`
	Phases      []PhaseStat `json:"phases"`
}

func toScenario(res *cluster.Result, name string) ScenarioResult {
	out := ScenarioResult{
		Scenario:    name,
		Protocol:    res.Protocol,
		TputKTPS:    res.ThroughputTPS / 1000,
		LatencyS:    res.Latency.Mean.Seconds(),
		ViewChanges: res.ViewChanges,
	}
	for _, p := range res.Phases {
		out.Phases = append(out.Phases, PhaseStat{
			Label:     p.Label,
			StartS:    p.Start.Seconds(),
			EndS:      p.End.Seconds(),
			Confirmed: p.Confirmed,
			TputKTPS:  p.ThroughputTPS / 1000,
			LatencyS:  p.MeanLatency.Seconds(),
		})
	}
	return out
}

// --- job-list builders: one declarative cluster.Config per grid cell ---

// sweepJobs is the Fig. 3 / Fig. 4 protocol-vs-replica-count grid for one
// network profile and straggler count, over the SweepProtocols panel.
func sweepJobs(net cluster.NetProfile, stragglers int, scale float64) []cluster.Config {
	var jobs []cluster.Config
	for _, n := range replicaCounts(scale) {
		for _, mode := range SweepProtocols() {
			cfg := baseConfig(mode, n, net, scale)
			cfg.Stragglers = stragglers
			jobs = append(jobs, cfg)
		}
	}
	return jobs
}

func sweepRows(res []*cluster.Result, stragglers int) []Row {
	rows := make([]Row, len(res))
	for i, r := range res {
		rows[i] = toRow(r, stragglers)
	}
	return rows
}

// paymentFractions is the Fig. 5 x-axis; -1 means an explicit 0% payments.
var paymentFractions = []float64{-1, 0.2, 0.4, 0.6, 0.8, 1.0}

// paymentJobs runs Orthrus at n = 16 (WAN) across payment proportions.
func paymentJobs(stragglers int, scale float64) []cluster.Config {
	var jobs []cluster.Config
	for _, frac := range paymentFractions {
		cfg := baseConfig(core.OrthrusMode(), 16, cluster.WAN, scale)
		cfg.Stragglers = stragglers
		cfg.Workload.PaymentFraction = frac
		jobs = append(jobs, cfg)
	}
	return jobs
}

func paymentRows(res []*cluster.Result, stragglers int) []Row {
	rows := make([]Row, len(res))
	for i, r := range res {
		row := toRow(r, stragglers)
		if frac := paymentFractions[i]; frac < 0 {
			row.Protocol = "pay=0%"
		} else {
			row.Protocol = fmt.Sprintf("pay=%.0f%%", frac*100)
		}
		rows[i] = row
	}
	return rows
}

// breakdownJob is the Fig. 6 configuration (16 replicas, WAN, one
// straggler) for one protocol.
func breakdownJob(mode core.Mode, scale float64) cluster.Config {
	cfg := baseConfig(mode, 16, cluster.WAN, scale)
	cfg.Stragglers = 1
	return cfg
}

// faultJob is the Fig. 7 configuration: Orthrus, 16 replicas, WAN,
// crashing the given number of replicas at t = 9 s, view-change timeout
// 10 s, measured in 0.5 s bins.
func faultJob(faults int, scale float64) cluster.Config {
	cfg := baseConfig(core.OrthrusMode(), 16, cluster.WAN, 1)
	cfg.LoadTPS = loadFor(16, cluster.WAN, 1) * scale
	cfg.Duration = 25 * time.Second
	cfg.Drain = 10 * time.Second
	cfg.EpochLen = 64
	cfg.CrashFaults = faults
	cfg.CrashAt = 9 * time.Second
	return cfg
}

// faultCounts is the Fig. 7 fault axis.
var faultCounts = []int{0, 1, 5}

// byzJobs runs Fig. 8: Orthrus with 0..5 Byzantine selective-participation
// replicas (16 replicas, WAN).
func byzJobs(scale float64) []cluster.Config {
	var jobs []cluster.Config
	for faults := 0; faults <= 5; faults++ {
		cfg := baseConfig(core.OrthrusMode(), 16, cluster.WAN, scale)
		cfg.ByzantineFaults = faults
		jobs = append(jobs, cfg)
	}
	return jobs
}

// SweepProtocols is the Figs. 3–4 panel, shared by BenchmarkFig3/4. RCC
// would be ISSMode field for field, and Mir differs from ISS only under a
// view change, which no cell of these figures has: ISS stands for both.
func SweepProtocols() []core.Mode {
	return []core.Mode{core.OrthrusMode(), baseline.ISSMode(), baseline.DQBFTMode(), baseline.LadonMode()}
}

// scenarioProtocols is the S1 protocol panel, which S2, F-scale and X-val
// share: Orthrus plus two baselines with opposite global-ordering behavior
// (ISS predetermined, Ladon dynamic).
func scenarioProtocols() []core.Mode {
	return []core.Mode{core.OrthrusMode(), baseline.ISSMode(), baseline.LadonMode()}
}

// --- F-scale: cluster-size sweep over the scale-hardened hot path ---

// scaleReplicaCounts is the F-scale x-axis: the paper-range sizes
// {4, 10, 25, 50, 100}, trimmed under small scales like replicaCounts so
// quick runs stay quick, plus the large tier {250, 500, 1000} phased in
// from scale 0.25 (one size per quarter-scale step). The cells from
// cluster.AnalyticFrom up run the analytic SB (message-level simulation
// with m = n instances costs O(n^3) per block round — infeasible at
// n = 100); smaller cells
// run message-level PBFT, the regime the allocation pass targets, and
// every cell runs under the NIC model. Tier cells run pulse-damped (see
// scaleJob), so even the n = 1000 cell is seconds-scale rather than
// minutes-scale; sub-0.25 scales (the -short CI tests) skip the tier
// entirely to keep the -race budget.
func scaleReplicaCounts(scale float64) []int {
	all := []int{4, 10, 25, 50, 100}
	tier := []int{250, 500, 1000}
	switch {
	case scale >= 1:
	case scale >= 0.5:
		all, tier = all[:4], tier[:2]
	case scale >= 0.25:
		all, tier = all[:3], tier[:1]
	default:
		return all[:2]
	}
	return append(all[:len(all):len(all)], tier...)
}

// scaleJob is one F-scale cell. Durations are half the paper figures'
// (the sweep has 15 cells and n = 100 dominates the suite's wall clock),
// and the analytic cells (n >= cluster.AnalyticFrom) run at a quarter of the per-size
// saturation load: every one of the n replicas executes every committed
// transaction, so the n = 100 cell's host-side cost is O(load x n) — the
// quarter load keeps the whole sweep's wall clock within the CI budget
// while latency and messages-per-commit, the figure's scale signals, are
// load-insensitive in the uncongested analytic regime.
func scaleJob(mode core.Mode, n int, scale float64) cluster.Config {
	cfg := baseConfig(mode, n, cluster.WAN, scale)
	dur := cfg.Duration / 2
	if dur < 4*time.Second {
		dur = 4 * time.Second
	}
	cfg.Duration = dur
	cfg.Warmup = dur / 5
	cfg.Drain = dur
	if n >= cluster.AnalyticFrom {
		cfg.LoadTPS /= 4
	}
	if n >= 250 {
		// Large-tier damping: the dominant host cost at these sizes is
		// the n instances x n replicas lockstep proposal-pulse traffic
		// (O(n^2) events per pulse period), so the tier slows the pulse
		// 5x and trims the load further — latency and messages-per-commit,
		// the figure's scale signals, are unaffected in the uncongested
		// analytic regime, and the n = 1000 cell drops from minutes to
		// seconds.
		cfg.BatchTimeout = 500 * time.Millisecond
		cfg.EpochLen = 1024
		cfg.LoadTPS /= 4
	}
	return cfg
}

// scenarioJob is one S1 cell: the named preset scenario applied to a
// 10-replica WAN cluster under message-level PBFT. The view-change timeout
// scales with the submission window so crash recovery stays visible at
// small scales.
func scenarioJob(name string, mode core.Mode, scale float64) cluster.Config {
	cfg := baseConfig(mode, 10, cluster.WAN, scale)
	cfg.EpochLen = 64
	cfg.ViewTimeout = cfg.Duration / 5
	scn, err := scenario.Preset(name, cfg.N, cfg.Duration, cfg.Seed)
	if err != nil {
		panic("experiments: " + err.Error()) // names come from scenario.Names
	}
	cfg.Scenario = scn
	return cfg
}

// attackJob is one S2 cell: a Byzantine attack preset (see
// scenario.AttackNames) on the S1 cluster shape. The censorship detector's
// patience drops to 16 delivered blocks so a censoring leader is voted out
// well inside the submission window; the other attacks end through the
// same view-change machinery at the scenario-scaled timeout.
func attackJob(name string, mode core.Mode, scale float64) cluster.Config {
	cfg := scenarioJob(name, mode, scale)
	cfg.CensorshipBlocks = 16
	return cfg
}

func byzRows(res []*cluster.Result) []Row {
	rows := make([]Row, len(res))
	for i, r := range res {
		row := toRow(r, 0)
		row.Protocol = fmt.Sprintf("byz=%d", i)
		rows[i] = row
	}
	return rows
}
