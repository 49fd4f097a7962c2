package cluster

import (
	"iter"
	"math"
	"time"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/types"
)

// txMeta is one transaction's client record, the one store a run's
// numbers are read from. It is stored by value in a dense slice in
// submission order — no per-transaction pointer allocations.
type txMeta struct {
	submit   types.Time
	reply    types.Time // client-visible reply time; set when done
	observed types.Time // observer replica's confirm time; zero: no trace counted
	home     int32      // replica co-located with the submitting client
	replies  int32
	// twin is the ordinal + 1 of the next submission of the same content
	// in a ring through all of them (0: the content was submitted once).
	twin   int32
	done   bool
	failed bool // the client-visible reply reports an abort
}

// latency is the client-observed latency: submission to the (f+1)-th reply,
// including the reply's network delay.
func (m *txMeta) latency() time.Duration { return time.Duration(m.reply - m.submit) }

// forever is the stop of a run that was not halted: it clamps nothing.
const forever = types.Time(math.MaxInt64)

// landed is the one reader of the client records: it yields, in submission
// order, every client-visible confirmation whose reply landed in [lo, hi).
// The run summary and the scenario phases are both read through it.
func landed(meta []txMeta, lo, hi types.Time) iter.Seq[*txMeta] {
	return func(yield func(*txMeta) bool) {
		for i := range meta {
			if m := &meta[i]; m.done && m.reply >= lo && m.reply < hi && !yield(m) {
				return
			}
		}
	}
}

// summarize reads the run's totals off the client records. Confirmed,
// ThroughputTPS, Latency and Aborted read one set: the replies that landed
// in the closed window [Warmup, Duration], its end clamped to the stop.
// Windows bins every reply before the stop, each bin its own set, and
// Unconfirmed counts the submissions with no reply before it.
func summarize(res *Result, meta []txMeta, warmup, duration time.Duration, stop types.Time) {
	var bins metrics.Series
	replied := 0
	for m := range landed(meta, 0, stop) {
		bins.Add(time.Duration(m.reply), m.latency())
		replied++
	}
	lats := make([]time.Duration, 0, replied)
	for m := range landed(meta, types.Time(warmup), min(types.Time(duration)+1, stop)) {
		lats = append(lats, m.latency())
		if m.failed {
			res.Aborted++
		}
	}
	res.Submitted, res.Confirmed, res.Unconfirmed = len(meta), len(lats), len(meta)-replied
	res.Latency = metrics.Summarize(lats)
	for i := range bins {
		res.Windows = append(res.Windows, bins.Window(i))
	}
	if window := min(duration, time.Duration(stop)) - warmup; window > 0 {
		res.ThroughputTPS = float64(res.Confirmed) / window.Seconds()
	}
}

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
	for m := range landed(meta, lo, hi) {
		p.Confirmed++
		lat += m.latency()
		latest = max(latest, m.reply)
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
