package cluster

import (
	"time"

	"repro/internal/scenario"
	"repro/internal/types"
)

// phaseTracker bins client-visible confirmations into the measurement
// windows a scenario induces. Every window is half-open: a confirmation
// whose reply lands exactly on a phase boundary belongs to the window the
// boundary opens, never the one it closes — including boundaries that
// coincide with a 0.5 s series-bin edge, where the streamed OnPhase
// emission and the final Result.Phases must agree (the regression tests in
// phase_test.go pin this). The final window owns every reply from its
// Start on; replies landing after the nominal end of the run raise its End
// at finalization so the reported rate stays Confirmed / (End - Start)
// over a span that actually contains the confirmations it counts.
//
// The tracker's buffers are allocated once per run and reused across a
// halted run's re-binning pass; recording a confirmation allocates
// nothing.
type phaseTracker struct {
	windows []PhaseWindow
	lat     []time.Duration // per-window client-latency sums
	emitted []bool          // streamed mid-run by OnPhase
	skipped []bool          // halted before the window opened; never emitted
	maxEnd  types.Time      // latest reply recorded in the final window
}

// newPhaseTracker derives the nominal windows from the scenario's event
// times: one window per phase, closed by the next phase's start or the end
// of the run. Events at or past runEnd collapse to zero-width windows;
// zero-width windows never own a reply (indexOf's last-wins rule), so
// their counts stay zero by construction.
func newPhaseTracker(scn *scenario.Scenario, runEnd time.Duration) *phaseTracker {
	ps := scn.Phases()
	pt := &phaseTracker{
		windows: make([]PhaseWindow, len(ps)),
		lat:     make([]time.Duration, len(ps)),
		emitted: make([]bool, len(ps)),
		skipped: make([]bool, len(ps)),
	}
	for i, p := range ps {
		end := runEnd
		if i+1 < len(ps) && ps[i+1].Start < end {
			end = ps[i+1].Start
		}
		start := p.Start
		if start > end {
			start = end
		}
		pt.windows[i] = PhaseWindow{Label: p.Label, Start: start, End: end}
	}
	return pt
}

// indexOf returns the window owning a reply at virtual time at: the last
// window whose Start is <= at. Equal-Start windows resolve to the latest,
// which keeps zero-width windows (scenario events at or past the end of
// the run) empty, and a reply exactly on a boundary goes to the window the
// boundary opens — the half-open rule.
func (pt *phaseTracker) indexOf(at types.Time) int {
	idx := 0
	for i := 1; i < len(pt.windows); i++ {
		if types.Time(pt.windows[i].Start) <= at {
			idx = i
		}
	}
	return idx
}

// record bins one confirmation by its client-visible reply time.
func (pt *phaseTracker) record(reply types.Time, lat time.Duration) {
	i := pt.indexOf(reply)
	pt.windows[i].Confirmed++
	pt.lat[i] += lat
	if i == len(pt.windows)-1 && reply > pt.maxEnd {
		pt.maxEnd = reply
	}
}

// reset clears the recorded counts, keeping the window bounds; a halted
// run re-bins from the surviving confirmations.
func (pt *phaseTracker) reset() {
	for i := range pt.windows {
		pt.windows[i].Confirmed = 0
		pt.lat[i] = 0
	}
	pt.maxEnd = 0
}

// stat reads window i's accumulators into a finished PhaseWindow. A window
// is final once virtual time reaches its End: replies are recorded before
// they land, and a reply exactly at End belongs to the next window, so
// nothing can join a closed window.
func (pt *phaseTracker) stat(i int) PhaseWindow {
	p := pt.windows[i]
	if winLen := (p.End - p.Start).Seconds(); winLen > 0 {
		p.ThroughputTPS = float64(p.Confirmed) / winLen
	}
	if p.Confirmed > 0 {
		p.MeanLatency = pt.lat[i] / time.Duration(p.Confirmed)
	}
	return p
}

// finalize computes every window's rates and returns the finished slice.
// The final window's End is raised just past its last recorded reply when
// confirmations outlast the nominal end of the run, preserving the
// half-open invariant. On a halted run, windows are clamped to the elapsed
// virtual time — phases the halt preempted entirely are marked skipped so
// the caller never emits them — and the caller must have re-binned (reset
// + record) only the replies that landed before the stop.
func (pt *phaseTracker) finalize(elapsed time.Duration, halted bool) []PhaseWindow {
	last := len(pt.windows) - 1
	if last >= 0 && !halted && time.Duration(pt.maxEnd) >= pt.windows[last].End {
		pt.windows[last].End = time.Duration(pt.maxEnd) + time.Nanosecond
	}
	out := make([]PhaseWindow, len(pt.windows))
	for i := range pt.windows {
		if halted {
			if pt.windows[i].Start >= elapsed {
				pt.skipped[i] = true
			}
			if pt.windows[i].Start > elapsed {
				pt.windows[i].Start = elapsed
			}
			if pt.windows[i].End > elapsed {
				pt.windows[i].End = elapsed
			}
		}
		out[i] = pt.stat(i)
	}
	return out
}
