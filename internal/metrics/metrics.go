// Package metrics provides the measurement instruments the evaluation
// needs: latency distributions, throughput time series binned the way the
// paper plots them (0.5 s intervals, Fig. 7), and the five-stage latency
// breakdown of Fig. 6.
package metrics

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/types"
)

// Latency accumulates a latency distribution.
type Latency struct {
	samples []time.Duration
	sorted  bool
}

// Add records one sample.
func (l *Latency) Add(d time.Duration) {
	l.samples = append(l.samples, d)
	l.sorted = false
}

// Count returns the number of samples.
func (l *Latency) Count() int { return len(l.samples) }

// Mean returns the average latency (0 if empty).
func (l *Latency) Mean() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range l.samples {
		sum += s
	}
	return sum / time.Duration(len(l.samples))
}

func (l *Latency) sort() {
	if !l.sorted {
		slices.Sort(l.samples)
		l.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]; 0 if empty).
func (l *Latency) Percentile(p float64) time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	l.sort()
	idx := int(p / 100 * float64(len(l.samples)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(l.samples) {
		idx = len(l.samples) - 1
	}
	return l.samples[idx]
}

// Max returns the largest sample.
func (l *Latency) Max() time.Duration { return l.Percentile(100) }

// String renders the distribution's Summary.
func (l *Latency) String() string { return l.Summary().String() }

// Summary is a latency distribution boiled down to what a run reports:
// sample count, mean, median, 99th percentile and maximum.
type Summary struct {
	Count int
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Summary is the one place a distribution becomes its reported figures (all
// zero if empty).
func (l *Latency) Summary() Summary {
	return Summary{Count: l.Count(), Mean: l.Mean(), P50: l.Percentile(50), P99: l.Percentile(99), Max: l.Max()}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("mean=%.2fs p50=%.2fs p99=%.2fs max=%.2fs n=%d",
		s.Mean.Seconds(), s.P50.Seconds(), s.P99.Seconds(), s.Max.Seconds(), s.Count)
}

// TimeSeries bins event counts and latency sums over fixed intervals, the
// way Fig. 7 plots throughput and latency averages over 0.5 s bins.
type TimeSeries struct {
	Bin     time.Duration
	counts  []int
	latSums []time.Duration
}

// NewTimeSeries creates a series with the given bin width.
func NewTimeSeries(bin time.Duration) *TimeSeries {
	if bin <= 0 {
		bin = 500 * time.Millisecond
	}
	return &TimeSeries{Bin: bin}
}

// Reserve preallocates capacity for at least n bins, so a run of known
// length fills its series without reallocating the two parallel slices.
// It never shrinks and does not change Bins().
func (ts *TimeSeries) Reserve(n int) {
	if cap(ts.counts) >= n {
		return
	}
	counts := make([]int, len(ts.counts), n)
	copy(counts, ts.counts)
	ts.counts = counts
	latSums := make([]time.Duration, len(ts.latSums), n)
	copy(latSums, ts.latSums)
	ts.latSums = latSums
}

func (ts *TimeSeries) grow(idx int) {
	for len(ts.counts) <= idx {
		ts.counts = append(ts.counts, 0)
		ts.latSums = append(ts.latSums, 0)
	}
}

// Record adds a confirmation event at virtual time at with the given
// client-observed latency.
func (ts *TimeSeries) Record(at types.Time, latency time.Duration) {
	idx := int(time.Duration(at) / ts.Bin)
	if idx < 0 {
		return
	}
	ts.grow(idx)
	ts.counts[idx]++
	ts.latSums[idx] += latency
}

// Bins returns the number of bins.
func (ts *TimeSeries) Bins() int { return len(ts.counts) }

// Count returns bin i's raw confirmation count (0 out of range).
func (ts *TimeSeries) Count(i int) int {
	if i < 0 || i >= len(ts.counts) {
		return 0
	}
	return ts.counts[i]
}

// Throughput returns bin i's rate in transactions per second.
func (ts *TimeSeries) Throughput(i int) float64 {
	if i < 0 || i >= len(ts.counts) {
		return 0
	}
	return float64(ts.counts[i]) / ts.Bin.Seconds()
}

// MeanLatency returns bin i's average latency (0 if no samples).
func (ts *TimeSeries) MeanLatency(i int) time.Duration {
	if i < 0 || i >= len(ts.counts) || ts.counts[i] == 0 {
		return 0
	}
	return ts.latSums[i] / time.Duration(ts.counts[i])
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

// Window is the one place bin i becomes a WindowStat (an empty window with
// bin i's bounds when out of range).
func (ts *TimeSeries) Window(i int) WindowStat {
	return WindowStat{
		Index:         i,
		Start:         time.Duration(i) * ts.Bin,
		End:           time.Duration(i+1) * ts.Bin,
		Confirmed:     ts.Count(i),
		ThroughputTPS: ts.Throughput(i),
		MeanLatency:   ts.MeanLatency(i),
	}
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
