package experiments

import (
	"fmt"

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

// figureSpec pairs a figure's declarative job list with the pure assembler
// that shapes the measured results; results arrive indexed like jobs.
type figureSpec struct {
	id       string
	title    string
	jobs     []runner.Job
	assemble func(res []*cluster.Result) FigureResult
}

// figureTitle is the single source of figure titles: spec constructors and
// the jobless Figures listing both read it.
func figureTitle(id string) string {
	switch id {
	case "1b":
		return "Fig 1b: ISS latency breakdown with one straggler (WAN n=16)"
	case "3":
		return "Fig 3: WAN throughput/latency vs replica count"
	case "4":
		return "Fig 4: LAN throughput/latency vs replica count"
	case "5":
		return "Fig 5: Orthrus under varying payment proportions (WAN n=16)"
	case "6":
		return "Fig 6 (and Fig 1b): latency breakdown, WAN n=16, one straggler"
	case "7":
		return "Fig 7: Orthrus under detectable faults (crash at 9s, WAN n=16)"
	case "8":
		return "Fig 8: undetectable faults (WAN n=16)"
	case "S1":
		return "Fig S1: scenario suite — dynamic faults, partitions and load (WAN n=10)"
	case "S2":
		return "Fig S2: adversary suite — equivocation, censorship, silent leaders and view-change storms (WAN n=10)"
	case "F-scale":
		return "Fig F-scale: scale sweep — throughput, latency and messages per commit over n=4..100 (WAN)"
	}
	return ""
}

func fig1bSpec(scale float64) figureSpec {
	title := figureTitle("1b")
	return figureSpec{
		id: "1b", title: title,
		jobs: []runner.Job{breakdownJob(baseline.ISSMode(), scale)},
		assemble: func(res []*cluster.Result) FigureResult {
			return FigureResult{Figure: "1b", Title: title,
				Breakdowns: []BreakdownResult{toBreakdown(res[0])}}
		},
	}
}

func netSweepSpec(id, name string, net cluster.NetProfile, scale float64) figureSpec {
	clean := sweepJobs(net, 0, scale)
	straggled := sweepJobs(net, 1, scale)
	title := figureTitle(id)
	return figureSpec{
		id: id, title: title,
		jobs: append(append([]runner.Job{}, clean...), straggled...),
		assemble: func(res []*cluster.Result) FigureResult {
			return FigureResult{Figure: id, Title: title, Tables: []Table{
				{Title: fmt.Sprintf("Fig %sa/%sb: %s, no stragglers", id, id, name), Rows: sweepRows(res[:len(clean)], 0)},
				{Title: fmt.Sprintf("Fig %sc/%sd: %s, one straggler", id, id, name), Rows: sweepRows(res[len(clean):], 1)},
			}}
		},
	}
}

func fig5Spec(scale float64) figureSpec {
	clean := paymentJobs(0, scale)
	straggled := paymentJobs(1, scale)
	title := figureTitle("5")
	return figureSpec{
		id: "5", title: title,
		jobs: append(append([]runner.Job{}, clean...), straggled...),
		assemble: func(res []*cluster.Result) FigureResult {
			return FigureResult{Figure: "5", Title: title, Tables: []Table{
				{Title: "Fig 5: payment proportion sweep, no straggler", Rows: paymentRows(res[:len(clean)], 0)},
				{Title: "Fig 5: payment proportion sweep, one straggler", Rows: paymentRows(res[len(clean):], 1)},
			}}
		},
	}
}

func fig6Spec(scale float64) figureSpec {
	title := figureTitle("6")
	return figureSpec{
		id: "6", title: title,
		jobs: []runner.Job{
			breakdownJob(core.OrthrusMode(), scale),
			breakdownJob(baseline.ISSMode(), scale),
		},
		assemble: func(res []*cluster.Result) FigureResult {
			return FigureResult{Figure: "6", Title: title,
				Breakdowns: []BreakdownResult{toBreakdown(res[0]), toBreakdown(res[1])}}
		},
	}
}

func fig7Spec(scale float64) figureSpec {
	title := figureTitle("7")
	jobs := make([]runner.Job, len(faultCounts))
	for i, f := range faultCounts {
		jobs[i] = faultJob(f, scale)
	}
	return figureSpec{
		id: "7", title: title, jobs: jobs,
		assemble: func(res []*cluster.Result) FigureResult {
			out := FigureResult{Figure: "7", Title: title}
			for i, r := range res {
				out.Series = append(out.Series, toSeries(r, faultCounts[i]))
			}
			return out
		},
	}
}

func fig8Spec(scale float64) figureSpec {
	title := figureTitle("8")
	return figureSpec{
		id: "8", title: title,
		jobs: byzJobs(scale),
		assemble: func(res []*cluster.Result) FigureResult {
			return FigureResult{Figure: "8", Title: title,
				Tables: []Table{{Title: title, Rows: byzRows(res)}}}
		},
	}
}

// s1Spec is the scenario suite: each selected preset scenario (see
// scenario.Names) runs once per protocol in scenarioProtocols, and every
// cell reports its per-phase windows alongside run-level numbers.
func s1Spec(scale float64, names []string) figureSpec {
	title := figureTitle("S1")
	var jobs []runner.Job
	type cell struct{ name string }
	var cells []cell
	for _, name := range names {
		for _, mode := range scenarioProtocols() {
			jobs = append(jobs, scenarioJob(name, mode, scale))
			cells = append(cells, cell{name: name})
		}
	}
	return figureSpec{
		id: "S1", title: title, jobs: jobs,
		assemble: func(res []*cluster.Result) FigureResult {
			out := FigureResult{Figure: "S1", Title: title}
			for i, r := range res {
				out.Scenarios = append(out.Scenarios, toScenario(r, cells[i].name))
			}
			return out
		},
	}
}

// s2Spec is the adversary suite: every Byzantine attack preset (see
// scenario.AttackNames) runs once per protocol in scenarioProtocols, with
// per-phase windows splitting each run at the attack onset — the S2 figure
// shows throughput surviving the attack and recovering after the
// view-change machinery rotates the victims out.
func s2Spec(scale float64) figureSpec {
	title := figureTitle("S2")
	var jobs []runner.Job
	var names []string
	for _, name := range scenario.AttackNames() {
		for _, mode := range scenarioProtocols() {
			jobs = append(jobs, attackJob(name, mode, scale))
			names = append(names, name)
		}
	}
	return figureSpec{
		id: "S2", title: title, jobs: jobs,
		assemble: func(res []*cluster.Result) FigureResult {
			out := FigureResult{Figure: "S2", Title: title}
			for i, r := range res {
				out.Scenarios = append(out.Scenarios, toScenario(r, names[i]))
			}
			return out
		},
	}
}

// fscaleSpec is the scale-sweep figure: every protocol of the S1 panel
// over the F-scale replica-count axis, one table per protocol, each row
// reporting throughput, latency and messages per client-visible commit.
func fscaleSpec(scale float64) figureSpec {
	return fscaleSpecOver(scaleReplicaCounts(scale), scale)
}

// fscaleSpecOver is fscaleSpec over an explicit replica-count axis (the
// determinism test reaches the n = 25 and analytic cells at a scale whose
// own axis stops at n = 10).
func fscaleSpecOver(counts []int, scale float64) figureSpec {
	title := figureTitle("F-scale")
	modes := scaleProtocols()
	var jobs []runner.Job
	for _, mode := range modes {
		for _, n := range counts {
			jobs = append(jobs, scaleJob(mode, n, scale))
		}
	}
	return figureSpec{
		id: "F-scale", title: title, jobs: jobs,
		assemble: func(res []*cluster.Result) FigureResult {
			out := FigureResult{Figure: "F-scale", Title: title}
			for pi, mode := range modes {
				rows := make([]Row, len(counts))
				for i, r := range res[pi*len(counts) : (pi+1)*len(counts)] {
					row := toRow(r, 0)
					if r.Confirmed > 0 {
						row.MsgsPerCommit = float64(r.Messages) / float64(r.Confirmed)
					}
					rows[i] = row
				}
				out.Tables = append(out.Tables, Table{
					Title: fmt.Sprintf("Fig F-scale: %s vs cluster size", mode.Name),
					Rows:  rows,
				})
			}
			return out
		},
	}
}

func figureSpecs(scale float64, scenarios []string) []figureSpec {
	return []figureSpec{
		fig1bSpec(scale),
		netSweepSpec("3", "WAN", cluster.WAN, scale),
		netSweepSpec("4", "LAN", cluster.LAN, scale),
		fig5Spec(scale),
		fig6Spec(scale),
		fig7Spec(scale),
		fig8Spec(scale),
		s1Spec(scale, scenarios),
		s2Spec(scale),
		fscaleSpec(scale),
	}
}

// FigureIDs returns the supported figure identifiers in render order.
func FigureIDs() []string {
	return []string{"1b", "3", "4", "5", "6", "7", "8", "S1", "S2", "F-scale"}
}

// FigureInfo names one supported figure for listings (orthrus-bench -list).
type FigureInfo struct {
	ID    string
	Title string
}

// Figures returns every supported figure's id and title in render order,
// without materializing any job lists.
func Figures() []FigureInfo {
	ids := FigureIDs()
	out := make([]FigureInfo, len(ids))
	for i, id := range ids {
		out[i] = FigureInfo{ID: id, Title: figureTitle(id)}
	}
	return out
}

// ScenarioNames returns the S1 scenario identifiers in figure order.
func ScenarioNames() []string { return scenario.Names() }

// AttackNames returns the S2 Byzantine attack preset identifiers in
// figure order.
func AttackNames() []string { return scenario.AttackNames() }

// Run executes the selected figures' job lists through one shared worker
// pool and returns one FigureResult per id, in the order requested.
// Results are independent of o.Workers: a parallel run reassembles in
// deterministic job order, so its output equals a serial run's.
func Run(ids []string, o runner.Options, scale float64) ([]FigureResult, error) {
	return RunScenarios(ids, nil, o, scale)
}

// RunScenarios is Run with the S1 scenario suite restricted to the named
// scenarios; nil or empty selects all of them (see ScenarioNames). The
// restriction only affects the S1 figure.
func RunScenarios(ids, scenarios []string, o runner.Options, scale float64) ([]FigureResult, error) {
	scale = clampScale(scale)
	if len(scenarios) == 0 {
		scenarios = scenario.Names()
	} else {
		valid := map[string]bool{}
		for _, name := range scenario.Names() {
			valid[name] = true
		}
		for _, name := range scenarios {
			if !valid[name] {
				return nil, fmt.Errorf("experiments: unknown scenario %q (want one of %v)", name, scenario.Names())
			}
		}
	}
	byID := map[string]figureSpec{}
	for _, s := range figureSpecs(scale, scenarios) {
		byID[s.id] = s
	}
	selected := make([]figureSpec, 0, len(ids))
	requested := make(map[string]bool, len(ids))
	for _, id := range ids {
		s, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown figure %q (want one of %v)", id, FigureIDs())
		}
		if requested[id] {
			return nil, fmt.Errorf("experiments: figure %q requested twice", id)
		}
		requested[id] = true
		selected = append(selected, s)
	}
	results := runner.Run(suiteJobs(selected), o)
	out := make([]FigureResult, 0, len(selected))
	off := 0
	for _, s := range selected {
		out = append(out, s.assemble(results[off:off+len(s.jobs)]))
		off += len(s.jobs)
	}
	return out, nil
}

// suiteJobs concatenates the selected figures' job lists, namespacing each
// key with its figure id: cluster.Config.Label alone is not unique across
// figures (e.g. Fig 3's n=16 Orthrus cell, Fig 7's faults=0 run and
// Fig 8's byz=0 run share a label), and pool-wide consumers of Job.Key
// (OnDone progress, debugging) need distinct keys per run.
func suiteJobs(selected []figureSpec) []runner.Job {
	var jobs []runner.Job
	for _, s := range selected {
		for _, j := range s.jobs {
			j.Key = "fig" + s.id + "/" + j.Key
			jobs = append(jobs, j)
		}
	}
	return jobs
}
