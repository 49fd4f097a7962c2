package experiments

import (
	"fmt"
	"io"

	"repro/internal/metrics"
)

// Text rendering of figure results. Renderers are pure: they read only the
// FigureResult, so rendering a parallel run reproduces a serial run's
// bytes exactly (the determinism regression test asserts this).

func printRows(w io.Writer, title string, rows []Row) {
	withMsgs := false
	for _, r := range rows {
		if r.MsgsPerCommit > 0 {
			withMsgs = true
			break
		}
	}
	fmt.Fprintf(w, "\n== %s ==\n", title)
	fmt.Fprintf(w, "%-8s %5s %10s %12s %10s %10s", "proto", "n", "straggler", "tput(ktps)", "lat(s)", "p99(s)")
	if withMsgs {
		fmt.Fprintf(w, " %12s", "msgs/commit")
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		lat, p99 := "-", "-" // no reply landed in the window
		if r.LatencyS > 0 {
			lat, p99 = fmt.Sprintf("%.2f", r.LatencyS), fmt.Sprintf("%.2f", r.P99S)
		}
		fmt.Fprintf(w, "%-8s %5d %10d %12.1f %10s %10s",
			r.Protocol, r.N, r.Stragglers, r.TputKTPS, lat, p99)
		if withMsgs {
			fmt.Fprintf(w, " %12.1f", r.MsgsPerCommit)
		}
		fmt.Fprintln(w)
	}
}

func printBreakdown(w io.Writer, b BreakdownResult) {
	fmt.Fprintf(w, "%-8s", b.Protocol)
	for _, s := range metrics.Stages() {
		fmt.Fprintf(w, "  %s=%6.2fs", s.String()[:4], b.Stages[s.String()].Seconds())
	}
	frac := 0.0
	if b.Total > 0 {
		frac = b.Stages[metrics.StageGlobal.String()].Seconds() / b.Total.Seconds() * 100
	}
	fmt.Fprintf(w, "  total=%6.2fs  global%%=%.1f\n", b.Total.Seconds(), frac)
}

func printSeries(w io.Writer, s SeriesResult) {
	fmt.Fprintf(w, "f=%d (view changes observed: %d)\n", s.Faults, s.ViewChange)
	fmt.Fprintf(w, "  t(s):      ")
	for i := 0; i < len(s.TimeS); i += 4 {
		fmt.Fprintf(w, "%6.1f", s.TimeS[i])
	}
	fmt.Fprintf(w, "\n  tput(ktps):")
	for i := 0; i < len(s.TputKTPS); i += 4 {
		fmt.Fprintf(w, "%6.1f", s.TputKTPS[i])
	}
	fmt.Fprintf(w, "\n  lat(s):    ")
	for i := 0; i < len(s.LatencyS); i += 4 {
		fmt.Fprintf(w, "%6.1f", s.LatencyS[i])
	}
	fmt.Fprintln(w)
}

func printScenario(w io.Writer, s ScenarioResult) {
	fmt.Fprintf(w, "%-20s %-8s  tput=%7.1f ktps  lat=%5.2fs  vc=%d\n",
		s.Scenario, s.Protocol, s.TputKTPS, s.LatencyS, s.ViewChanges)
	for _, p := range s.Phases {
		fmt.Fprintf(w, "    %-20s [%5.1fs,%6.1fs)  %7.1f ktps  lat=%5.2fs\n",
			p.Label, p.StartS, p.EndS, p.TputKTPS, p.LatencyS)
	}
}

func printSoak(w io.Writer, s SoakResult) {
	fmt.Fprintf(w, "%-8s n=%-3d  virtual=%6.0fs  tput=%7.1f ktps  vc=%d  catchup=%d\n",
		s.Protocol, s.N, s.VirtualS, s.TputKTPS, s.ViewChanges, s.CatchUpBlocks)
	fmt.Fprintf(w, "    live-set peak=%d final=%d  half-peaks=%d/%d\n",
		s.PeakLiveSet, s.FinalLiveSet, s.PeakFirstHalf, s.PeakSecondHalf)
	fmt.Fprintf(w, "    t(s):    ")
	for i := 0; i < len(s.Samples); i += 8 {
		fmt.Fprintf(w, "%8.0f", s.Samples[i].AtS)
	}
	fmt.Fprintf(w, "\n    total:   ")
	for i := 0; i < len(s.Samples); i += 8 {
		fmt.Fprintf(w, "%8d", s.Samples[i].Total)
	}
	fmt.Fprintln(w)
}

// Render writes the figure's text form: a figure-level header for
// breakdown/series/scenario/soak figures, then every breakdown line,
// series block, scenario block, soak block and sweep table the figure
// holds.
func (f FigureResult) Render(w io.Writer) {
	if len(f.Breakdowns) > 0 || len(f.Series) > 0 || len(f.Scenarios) > 0 || len(f.Soak) > 0 {
		fmt.Fprintf(w, "\n== %s ==\n", f.Title)
	}
	for _, b := range f.Breakdowns {
		printBreakdown(w, b)
	}
	for _, s := range f.Series {
		printSeries(w, s)
	}
	for _, s := range f.Scenarios {
		printScenario(w, s)
	}
	for _, s := range f.Soak {
		printSoak(w, s)
	}
	for _, t := range f.Tables {
		printRows(w, t.Title, t.Rows)
	}
}
