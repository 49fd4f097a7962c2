package cluster

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/types"
)

// mkTracker builds a phaseTracker over a scenario with events at the
// given times (all Heal — the kinds are irrelevant to windowing).
func mkTracker(runEnd time.Duration, eventTimes ...time.Duration) *phaseTracker {
	b := scenario.New("t")
	for _, at := range eventTimes {
		b.HealAt(at)
	}
	return newPhaseTracker(b.Build(), runEnd)
}

// repliesAt builds the client records of confirmations whose replies land
// at the given times, each a millisecond after its submission.
func repliesAt(at ...time.Duration) []txMeta {
	meta := make([]txMeta, len(at))
	for i, r := range at {
		meta[i] = txMeta{submit: types.Time(r - time.Millisecond), reply: types.Time(r), done: true}
	}
	return meta
}

// measureAll measures every window of pt over meta up to upTo.
func measureAll(pt *phaseTracker, meta []txMeta, upTo types.Time) []PhaseWindow {
	out := make([]PhaseWindow, len(pt.windows))
	for i := range out {
		out[i] = pt.measure(i, meta, upTo)
	}
	return out
}

// TestPhaseBoundaryHalfOpen pins the regression: a confirmation whose
// reply lands exactly on a phase boundary — including a boundary that
// coincides with a 0.5 s series-bin edge — belongs to the window the
// boundary opens, and the windows count every confirmation once.
func TestPhaseBoundaryHalfOpen(t *testing.T) {
	// Boundary at exactly 2.5s: a 0.5s metric window edge.
	pt := mkTracker(18*time.Second, 2500*time.Millisecond)
	meta := repliesAt(
		2500*time.Millisecond-1, // last tick of baseline
		2500*time.Millisecond,   // exactly on the edge
		2500*time.Millisecond+1, // first tick after
	)
	out := measureAll(pt, meta, forever)
	if out[0].Confirmed != 1 {
		t.Fatalf("baseline window [0, 2.5s) counted %d, want 1 (boundary must not drift)", out[0].Confirmed)
	}
	if out[1].Confirmed != 2 {
		t.Fatalf("window [2.5s, ...) counted %d, want 2 (boundary reply belongs to the opening window)", out[1].Confirmed)
	}
	// The baseline window streams mid-run at 2.5s, before the later replies
	// have landed: it must read the same then.
	if streamed := pt.measure(0, meta[:2], forever); streamed != out[0] {
		t.Fatalf("baseline streamed %+v, final %+v", streamed, out[0])
	}
}

// TestPhaseWindowCountsPinned fixes the exact per-window counts for a
// three-phase timeline with replies scattered on and around every
// boundary.
func TestPhaseWindowCountsPinned(t *testing.T) {
	pt := mkTracker(10*time.Second, 2*time.Second, 4*time.Second)
	meta := repliesAt(
		1*time.Second, 1999*time.Millisecond, // baseline
		2*time.Second, 3*time.Second, 3999*time.Millisecond, // phase 1
		4*time.Second, 9*time.Second, // phase 2
	)
	meta = append(meta, txMeta{submit: types.Time(time.Second)}) // never confirmed
	out := measureAll(pt, meta, forever)
	want := []int{2, 3, 2}
	for i, w := range want {
		if out[i].Confirmed != w {
			t.Fatalf("window %d (%q [%v,%v)) counted %d, want %d",
				i, out[i].Label, out[i].Start, out[i].End, out[i].Confirmed, w)
		}
		if out[i].ThroughputTPS != float64(w)/(out[i].End-out[i].Start).Seconds() {
			t.Fatalf("window %d rate %f inconsistent with its bounds", i, out[i].ThroughputTPS)
		}
		if out[i].MeanLatency != time.Millisecond {
			t.Fatalf("window %d mean latency %v, want 1ms", i, out[i].MeanLatency)
		}
	}
	// Windows tile the run: contiguous half-open intervals.
	for i := 1; i < len(out); i++ {
		if out[i].Start != out[i-1].End {
			t.Fatalf("windows not contiguous: [%v,%v) then [%v,%v)",
				out[i-1].Start, out[i-1].End, out[i].Start, out[i].End)
		}
	}
}

// TestFinalPhaseExtendsToLateReplies pins the other half of the drift
// fix: replies landing after the nominal end of the run stay in the final
// window, whose End is raised past the last of them so the reported rate
// covers a span containing every counted confirmation.
func TestFinalPhaseExtendsToLateReplies(t *testing.T) {
	runEnd := 6 * time.Second
	pt := mkTracker(runEnd, 2*time.Second)
	late := runEnd + 300*time.Millisecond
	out := measureAll(pt, repliesAt(5*time.Second, runEnd, late), forever) // one exactly at nominal end
	if out[1].Confirmed != 3 {
		t.Fatalf("final window counted %d, want 3", out[1].Confirmed)
	}
	if out[1].End <= late {
		t.Fatalf("final window End %v does not cover its last reply %v", out[1].End, late)
	}
	want := float64(3) / (out[1].End - out[1].Start).Seconds()
	if out[1].ThroughputTPS != want {
		t.Fatalf("final window rate %f, want %f", out[1].ThroughputTPS, want)
	}
}

// TestZeroWidthWindowsStayEmpty: scenario events at or past the end of
// the run collapse to zero-width windows, which must never own a reply
// (the half-open rule) nor report a rate.
func TestZeroWidthWindowsStayEmpty(t *testing.T) {
	runEnd := 4 * time.Second
	pt := mkTracker(runEnd, 4*time.Second, 5*time.Second)
	out := measureAll(pt, repliesAt(3*time.Second, 4*time.Second), forever) // the second at run end
	if out[1].Confirmed != 0 || out[1].ThroughputTPS != 0 {
		t.Fatalf("zero-width window [4s,4s) counted %d replies at %f tps", out[1].Confirmed, out[1].ThroughputTPS)
	}
	if out[2].Confirmed != 1 {
		t.Fatalf("final window counted %d, want 1", out[2].Confirmed)
	}
	if out[0].Confirmed != 1 {
		t.Fatalf("baseline counted %d, want 1", out[0].Confirmed)
	}
}

// TestScenarioEventOnSeriesBinEdgeEndToEnd runs a real cluster with a
// scenario boundary exactly on a 0.5 s series-bin edge and checks the
// phase windows partition every recorded confirmation: the sum of
// per-window counts equals the run's latency sample count, and streamed
// OnPhase values equal the final Result.Phases.
func TestScenarioEventOnSeriesBinEdgeEndToEnd(t *testing.T) {
	scn := scenario.New("edge").
		StraggleAt(1500*time.Millisecond, 5, 3).
		StraggleAt(2500*time.Millisecond, 1, 3).
		Build()
	cfg := smallCfg(core.OrthrusMode())
	cfg.Scenario = scn
	var streamed []PhaseWindow
	cfg.OnPhase = func(p PhaseWindow) { streamed = append(streamed, p) }
	res := Run(cfg)
	if len(res.Phases) != 3 {
		t.Fatalf("phases = %v", res.Phases)
	}
	sum := 0
	for _, p := range res.Phases {
		sum += p.Confirmed
	}
	if sum != res.Latency.Count() {
		t.Fatalf("phase windows count %d confirmations, run recorded %d — boundary drift", sum, res.Latency.Count())
	}
	if len(streamed) != len(res.Phases) {
		t.Fatalf("streamed %d phases, result has %d", len(streamed), len(res.Phases))
	}
	for i, p := range streamed {
		if p != res.Phases[i] {
			t.Fatalf("streamed phase %d %+v != final %+v", i, p, res.Phases[i])
		}
	}
	for i := 1; i < len(res.Phases); i++ {
		if res.Phases[i].Start != res.Phases[i-1].End {
			t.Fatalf("phases not contiguous: %+v", res.Phases)
		}
	}
}
