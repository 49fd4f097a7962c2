package experiments

import (
	"fmt"
	"slices"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// Table is one titled block of sweep rows inside a figure.
type Table struct {
	Title string `json:"title"`
	Rows  []Row  `json:"rows"`
}

// FigureResult is the structured, JSON-serializable outcome of one figure:
// every number the figure plots, separated from its text rendering
// (Render). cmd/orthrus-bench -json writes a list of these.
type FigureResult struct {
	Figure     string            `json:"figure"`
	Title      string            `json:"title"`
	Tables     []Table           `json:"tables,omitempty"`
	Breakdowns []BreakdownResult `json:"breakdowns,omitempty"`
	Series     []SeriesResult    `json:"series,omitempty"`
	Scenarios  []ScenarioResult  `json:"scenarios,omitempty"`
	Soak       []SoakResult      `json:"soak,omitempty"`
}

// plan is one figure's work at one scale: the configurations to simulate,
// the configurations to run over the real in-process transport, and the
// pure assembler that shapes the measured results — which arrive indexed
// like the two lists — into f, which Run hands over with Figure and Title
// already set from the catalogue.
type plan struct {
	sim, real []cluster.Config
	assemble  func(f *FigureResult, sim, real []*cluster.Result)
}

// figure is one catalogue entry. Suite marks the deterministic suite that
// FigureIDs lists and "all" selects; the other entries run only when named.
type figure struct {
	FigureInfo
	suite bool
	plan  func(scale float64, scenarios []string) plan
}

// XValID and SoakID identify the two figures outside the suite. X-val's
// real-measured cells are wall-clock experiments on the host machine, so
// their numbers vary run to run, and the suite — which the serial/parallel
// equivalence tests replay expecting byte-identical results — cannot
// contain it. A soak cell runs hours of virtual time, far too slow for it.
const (
	XValID = "X-val"
	SoakID = "F-soak"
)

// catalogue is every figure Run can execute, in render order: the one list
// of figure ids and titles.
var catalogue = []figure{
	{FigureInfo{"1b", "Fig 1b: ISS latency breakdown with one straggler (WAN n=16)"}, true, fig1bPlan},
	{FigureInfo{"3", "Fig 3: WAN throughput/latency vs replica count"}, true, netSweepPlan("3", cluster.WAN)},
	{FigureInfo{"4", "Fig 4: LAN throughput/latency vs replica count"}, true, netSweepPlan("4", cluster.LAN)},
	{FigureInfo{"5", "Fig 5: Orthrus under varying payment proportions (WAN n=16)"}, true, fig5Plan},
	{FigureInfo{"6", "Fig 6 (and Fig 1b): latency breakdown, WAN n=16, one straggler"}, true, fig6Plan},
	{FigureInfo{"7", "Fig 7: Orthrus under detectable faults (crash at 9s, WAN n=16)"}, true, fig7Plan},
	{FigureInfo{"8", "Fig 8: undetectable faults (WAN n=16)"}, true, fig8Plan},
	{FigureInfo{"S1", "Fig S1: scenario suite — dynamic faults, partitions and load (WAN n=10)"}, true, s1Plan},
	{FigureInfo{"S2", "Fig S2: adversary suite — equivocation, censorship, silent leaders and view-change storms (WAN n=10)"}, true, s2Plan},
	{FigureInfo{"F-scale", "Fig F-scale: scale sweep — throughput, latency and messages per commit over n=4..100 (WAN)"}, true, fscalePlan},
	{FigureInfo{XValID, "Fig X-val: sim-predicted vs real-measured throughput/latency (in-process transport, n=4,10)"}, false, xvalPlan},
	{FigureInfo{SoakID, "Fig F-soak: long-horizon soak — live-set census under crash/recover churn (WAN)"}, false, soakPlan},
}

func fig1bPlan(scale float64, _ []string) plan {
	return plan{
		sim: []cluster.Config{breakdownJob(baseline.ISSMode(), scale)},
		assemble: func(f *FigureResult, res, _ []*cluster.Result) {
			f.Breakdowns = []BreakdownResult{toBreakdown(res[0])}
		},
	}
}

// sweepPanelNote ends the title of every Figs. 3–4 table (SweepProtocols).
const sweepPanelNote = "ISS rows also stand for RCC (the same mode) and Mir (its stall needs a view change; none happens here)"

// netSweepPlan is the Fig. 3 / Fig. 4 shape over one network profile.
func netSweepPlan(id string, net cluster.NetProfile) func(float64, []string) plan {
	return func(scale float64, _ []string) plan {
		clean := sweepJobs(net, 0, scale)
		return plan{
			sim: append(clean, sweepJobs(net, 1, scale)...),
			assemble: func(f *FigureResult, res, _ []*cluster.Result) {
				f.Tables = []Table{
					{Title: fmt.Sprintf("Fig %sa/%sb: %s, no stragglers; %s", id, id, net, sweepPanelNote), Rows: sweepRows(res[:len(clean)], 0)},
					{Title: fmt.Sprintf("Fig %sc/%sd: %s, one straggler; %s", id, id, net, sweepPanelNote), Rows: sweepRows(res[len(clean):], 1)},
				}
			},
		}
	}
}

func fig5Plan(scale float64, _ []string) plan {
	clean := paymentJobs(0, scale)
	return plan{
		sim: append(clean, paymentJobs(1, scale)...),
		assemble: func(f *FigureResult, res, _ []*cluster.Result) {
			f.Tables = []Table{
				{Title: "Fig 5: payment proportion sweep, no straggler", Rows: paymentRows(res[:len(clean)], 0)},
				{Title: "Fig 5: payment proportion sweep, one straggler", Rows: paymentRows(res[len(clean):], 1)},
			}
		},
	}
}

func fig6Plan(scale float64, _ []string) plan {
	return plan{
		sim: []cluster.Config{
			breakdownJob(core.OrthrusMode(), scale),
			breakdownJob(baseline.ISSMode(), scale),
		},
		assemble: func(f *FigureResult, res, _ []*cluster.Result) {
			f.Breakdowns = []BreakdownResult{toBreakdown(res[0]), toBreakdown(res[1])}
		},
	}
}

func fig7Plan(scale float64, _ []string) plan {
	jobs := make([]cluster.Config, len(faultCounts))
	for i, f := range faultCounts {
		jobs[i] = faultJob(f, scale)
	}
	return plan{
		sim: jobs,
		assemble: func(f *FigureResult, res, _ []*cluster.Result) {
			for i, r := range res {
				f.Series = append(f.Series, toSeries(r, faultCounts[i]))
			}
		},
	}
}

func fig8Plan(scale float64, _ []string) plan {
	return plan{
		sim: byzJobs(scale),
		assemble: func(f *FigureResult, res, _ []*cluster.Result) {
			f.Tables = []Table{{Title: f.Title, Rows: byzRows(res)}}
		},
	}
}

// scenarioPlan runs each named preset once per protocol in
// scenarioProtocols, every cell reporting its per-phase windows alongside
// run-level numbers.
func scenarioPlan(names []string, job func(string, core.Mode, float64) cluster.Config, scale float64) plan {
	var jobs []cluster.Config
	var cells []string
	for _, name := range names {
		for _, mode := range scenarioProtocols() {
			jobs = append(jobs, job(name, mode, scale))
			cells = append(cells, name)
		}
	}
	return plan{
		sim: jobs,
		assemble: func(f *FigureResult, res, _ []*cluster.Result) {
			for i, r := range res {
				f.Scenarios = append(f.Scenarios, toScenario(r, cells[i]))
			}
		},
	}
}

// s1Plan is the scenario suite over the selected presets (see
// scenario.Names).
func s1Plan(scale float64, scenarios []string) plan {
	return scenarioPlan(scenarios, scenarioJob, scale)
}

// s2Plan is the adversary suite over every Byzantine attack preset (see
// scenario.AttackNames), with per-phase windows splitting each run at the
// attack onset — the S2 figure shows throughput surviving the attack and
// recovering after the view-change machinery rotates the victims out.
func s2Plan(scale float64, _ []string) plan {
	return scenarioPlan(scenario.AttackNames(), attackJob, scale)
}

// fscalePlan is the scale-sweep figure: every protocol of the S1 panel
// over the F-scale replica-count axis, one table per protocol, each row
// reporting throughput, latency and messages per client-visible commit.
func fscalePlan(scale float64, _ []string) plan {
	return fscalePlanOver(scaleReplicaCounts(scale), scale)
}

// fscalePlanOver is fscalePlan over an explicit replica-count axis (the
// determinism test reaches the n = 25 and analytic cells at a scale whose
// own axis stops at n = 10).
func fscalePlanOver(counts []int, scale float64) plan {
	modes := scenarioProtocols()
	var jobs []cluster.Config
	for _, mode := range modes {
		for _, n := range counts {
			jobs = append(jobs, scaleJob(mode, n, scale))
		}
	}
	return plan{
		sim: jobs,
		assemble: func(f *FigureResult, res, _ []*cluster.Result) {
			for pi, mode := range modes {
				rows := make([]Row, len(counts))
				for i, r := range res[pi*len(counts) : (pi+1)*len(counts)] {
					row := toRow(r, 0)
					if r.Confirmed > 0 {
						row.MsgsPerCommit = float64(r.Messages) / float64(r.Confirmed)
					}
					rows[i] = row
				}
				f.Tables = append(f.Tables, Table{
					Title: fmt.Sprintf("Fig F-scale: %s vs cluster size", mode.Name),
					Rows:  rows,
				})
			}
		},
	}
}

// FigureInfo names one supported figure for listings (orthrus-bench -list).
type FigureInfo struct {
	ID    string
	Title string
}

// Figures returns the suite's ids and titles in render order, without
// materializing any job lists.
func Figures() []FigureInfo {
	var out []FigureInfo
	for _, f := range catalogue {
		if f.suite {
			out = append(out, f.FigureInfo)
		}
	}
	return out
}

// FigureIDs returns the suite's figure identifiers in render order.
func FigureIDs() []string {
	var ids []string
	for _, f := range Figures() {
		ids = append(ids, f.ID)
	}
	return ids
}

// find returns the catalogue entry with the given id.
func find(id string) (figure, bool) {
	for _, f := range catalogue {
		if f.ID == id {
			return f, true
		}
	}
	return figure{}, false
}

// Info names any catalogue figure — XValID and SoakID included — for
// listings next to the Figures entries.
func Info(id string) FigureInfo {
	f, _ := find(id)
	return f.FigureInfo
}

// Run executes the selected figures — any catalogue ids, in or outside the
// suite — and returns one FigureResult per id, in the order requested.
// Scenarios restricts the S1 suite to the named presets; nil or empty
// selects all of scenario.Names. Every selected figure's simulated runs
// share one pool of the given size (0 uses all cores); the real-transport
// runs go one at a time after it has drained, so nothing contends with a
// wall-clock measurement. Simulated results are independent of workers: a
// parallel run reassembles in deterministic job order, so its output
// equals a serial run's.
func Run(ids, scenarios []string, workers int, scale float64) ([]FigureResult, error) {
	scale, err := Scale(scale)
	if err != nil {
		return nil, err
	}
	if len(scenarios) == 0 {
		scenarios = scenario.Names()
	}
	for _, name := range scenarios {
		if !slices.Contains(scenario.Names(), name) {
			return nil, fmt.Errorf("experiments: unknown scenario %q (want one of %v)", name, scenario.Names())
		}
	}
	out := make([]FigureResult, len(ids))
	plans := make([]plan, len(ids))
	var sim, real []cluster.Config
	for i, id := range ids {
		f, ok := find(id)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown figure %q (want one of %v, %s or %s)", id, FigureIDs(), XValID, SoakID)
		}
		if slices.Contains(ids[:i], id) {
			return nil, fmt.Errorf("experiments: figure %q requested twice", id)
		}
		out[i].Figure, out[i].Title = f.ID, f.Title
		plans[i] = f.plan(scale, scenarios)
		sim = append(sim, plans[i].sim...)
		real = append(real, plans[i].real...)
	}
	simRes := runner.Run(sim, workers, cluster.Run)
	realRes := runner.Run(real, 1, cluster.RunReal)
	for i, p := range plans {
		p.assemble(&out[i], simRes[:len(p.sim)], realRes[:len(p.real)])
		simRes, realRes = simRes[len(p.sim):], realRes[len(p.real):]
	}
	return out, nil
}
