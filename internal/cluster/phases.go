package cluster

import (
	"math"
	"time"

	"repro/internal/scenario"
	"repro/internal/types"
)

// forever is measure's upTo for a run that was not halted: no stop clamps
// its windows.
const forever = types.Time(math.MaxInt64)

// phaseTracker holds the measurement windows a scenario induces. It keeps
// no counts: measure reads a window off the collector's client records, so
// the value streamed mid-run, the final Result.Phases and a halted run's
// clamped windows are one scan of the same data.
type phaseTracker struct {
	windows []PhaseWindow // nominal bounds; Confirmed and rates stay zero
	emitted int           // windows streamed mid-run by OnPhase, a prefix
}

// newPhaseTracker derives the nominal windows from the scenario's event
// times: one window per phase, closed by the next phase's start or the end
// of the run. Events at or past runEnd collapse to zero-width windows at
// runEnd, so the windows tile [0, runEnd) and each opens where the previous
// one closes.
func newPhaseTracker(scn *scenario.Scenario, runEnd time.Duration) *phaseTracker {
	ps := scn.Phases()
	pt := &phaseTracker{windows: make([]PhaseWindow, len(ps))}
	for i, p := range ps {
		end := runEnd
		if i+1 < len(ps) && ps[i+1].Start < end {
			end = ps[i+1].Start
		}
		pt.windows[i] = PhaseWindow{Label: p.Label, Start: min(p.Start, end), End: end}
	}
	return pt
}

// measure reads window i off the client records: the client-visible
// confirmations whose reply landed in it before upTo. Every window is
// half-open — a reply exactly on a boundary belongs to the window the
// boundary opens, never the one it closes, so a zero-width window owns
// nothing — except the final one, which owns every reply from its Start
// on: replies landing after the nominal end of the run raise its End just
// past the last of them, so its rate stays Confirmed / (End - Start) over a
// span that contains what it counts. A halted run passes its stop as upTo,
// which clamps the window's bounds to it; forever clamps nothing.
//
// A window is final once the run's clock reaches its End: a confirmation
// is recorded before its reply lands, and a reply at End belongs to the
// next window, so nothing can join a closed window.
func (pt *phaseTracker) measure(i int, meta []txMeta, upTo types.Time) PhaseWindow {
	p := pt.windows[i]
	last := i == len(pt.windows)-1
	lo, hi := types.Time(p.Start), types.Time(p.End)
	if last {
		hi = upTo
	}
	hi = min(hi, upTo)
	var lat time.Duration
	var latest types.Time
	for j := range meta {
		if m := &meta[j]; m.done && m.reply >= lo && m.reply < hi {
			p.Confirmed++
			lat += time.Duration(m.reply - m.submit)
			latest = max(latest, m.reply)
		}
	}
	if last && latest >= types.Time(p.End) {
		p.End = time.Duration(latest) + time.Nanosecond
	}
	p.Start = min(p.Start, time.Duration(upTo))
	p.End = min(p.End, time.Duration(upTo))
	if winLen := (p.End - p.Start).Seconds(); winLen > 0 {
		p.ThroughputTPS = float64(p.Confirmed) / winLen
	}
	if p.Confirmed > 0 {
		p.MeanLatency = lat / time.Duration(p.Confirmed)
	}
	return p
}
