// Package metrics holds the shapes a run's measurements are reported in: a
// latency distribution's summary, the 0.5 s series of Fig. 7 and its bins
// as records, and the five-stage latency breakdown of Fig. 6.
package metrics

import (
	"fmt"
	"slices"
	"time"
)

// Summary is a latency distribution boiled down to what a run reports:
// sample count, mean, median, 99th percentile and maximum.
type Summary struct {
	Count int
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Summarize is the one place a distribution becomes its reported figures
// (all zero if empty). It sorts samples in place; the p-th percentile is
// the sample at index int(p/100 × (n−1)) of the sorted slice.
func Summarize(samples []time.Duration) Summary {
	n := len(samples)
	if n == 0 {
		return Summary{}
	}
	slices.Sort(samples)
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	at := func(p float64) time.Duration { return samples[int(p/100*float64(n-1))] }
	return Summary{Count: n, Mean: sum / time.Duration(n), P50: at(50), P99: at(99), Max: samples[n-1]}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("mean=%.2fs p50=%.2fs p99=%.2fs max=%.2fs n=%d",
		s.Mean.Seconds(), s.P50.Seconds(), s.P99.Seconds(), s.Max.Seconds(), s.Count)
}

// WindowStat is one series bin as a record: confirmations whose
// client-visible reply landed in [Start, End), the resulting rate, and their
// mean latency.
type WindowStat struct {
	Index         int
	Start, End    time.Duration
	Confirmed     int
	ThroughputTPS float64
	MeanLatency   time.Duration
}

// BinWidth is a series bin's width: Fig. 7 plots 0.5 s intervals.
const BinWidth = 500 * time.Millisecond

// Series bins replies by their landing time, each bin a count and a
// latency sum.
type Series []struct {
	n   int
	lat time.Duration
}

// Add counts a reply landing at reply (time since the run's start) after lat.
func (s *Series) Add(reply, lat time.Duration) {
	i := int(reply / BinWidth)
	if i >= len(*s) {
		*s = append(*s, make(Series, i+1-len(*s))...)
	}
	(*s)[i].n++
	(*s)[i].lat += lat
}

// Window is the one place bin i becomes a WindowStat (an empty window with
// bin i's bounds when out of range).
func (s Series) Window(i int) WindowStat {
	w := WindowStat{Index: i, Start: time.Duration(i) * BinWidth, End: time.Duration(i+1) * BinWidth}
	if i < len(s) && s[i].n > 0 {
		w.Confirmed = s[i].n
		w.ThroughputTPS = float64(s[i].n) / BinWidth.Seconds()
		w.MeanLatency = s[i].lat / time.Duration(s[i].n)
	}
	return w
}

// Stage identifies one of the five breakdown stages of Fig. 6.
type Stage int

// The five stages of the paper's latency breakdown.
const (
	StageSend       Stage = iota // client -> replica transmission
	StagePreprocess              // receipt -> inclusion in a broadcast block
	StagePartial                 // broadcast -> SB delivery (partial order)
	StageGlobal                  // delivery -> confirmation (global order + exec)
	StageReply                   // confirmation -> f+1 replies at the client
	stageCount
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageSend:
		return "Send"
	case StagePreprocess:
		return "Preprocessing"
	case StagePartial:
		return "Partial ordering"
	case StageGlobal:
		return "Global ordering"
	case StageReply:
		return "Reply"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Breakdown accumulates per-stage latency means.
type Breakdown struct {
	sums   [stageCount]time.Duration
	counts [stageCount]int
}

// Add records one transaction's stage duration.
func (b *Breakdown) Add(s Stage, d time.Duration) {
	if s < 0 || s >= stageCount || d < 0 {
		return
	}
	b.sums[s] += d
	b.counts[s]++
}

// Mean returns the mean duration of a stage.
func (b *Breakdown) Mean(s Stage) time.Duration {
	if s < 0 || s >= stageCount || b.counts[s] == 0 {
		return 0
	}
	return b.sums[s] / time.Duration(b.counts[s])
}

// Total returns the sum of all stage means (the stacked bar's length).
func (b *Breakdown) Total() time.Duration {
	var t time.Duration
	for s := Stage(0); s < stageCount; s++ {
		t += b.Mean(s)
	}
	return t
}

// Stages returns all stages in plot order.
func Stages() []Stage {
	return []Stage{StageSend, StagePreprocess, StagePartial, StageGlobal, StageReply}
}
