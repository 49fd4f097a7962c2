package metrics

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simnet"
)

func TestLatencyEmpty(t *testing.T) {
	var l Latency
	if l.Mean() != 0 || l.Percentile(50) != 0 || l.Max() != 0 || l.Count() != 0 {
		t.Fatal("empty latency not zero")
	}
}

func TestLatencyStats(t *testing.T) {
	var l Latency
	for i := 1; i <= 100; i++ {
		l.Add(time.Duration(i) * time.Millisecond)
	}
	if l.Count() != 100 {
		t.Fatalf("count %d", l.Count())
	}
	if got := l.Mean(); got != 50500*time.Microsecond {
		t.Fatalf("mean %v", got)
	}
	if got := l.Percentile(50); got < 49*time.Millisecond || got > 52*time.Millisecond {
		t.Fatalf("p50 %v", got)
	}
	if got := l.Max(); got != 100*time.Millisecond {
		t.Fatalf("max %v", got)
	}
	if got := l.Percentile(0); got != 1*time.Millisecond {
		t.Fatalf("p0 %v", got)
	}
}

func TestLatencyPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		var l Latency
		for _, v := range raw {
			l.Add(time.Duration(v))
		}
		if len(raw) == 0 {
			return true
		}
		prev := time.Duration(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := l.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return l.Mean() <= l.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyAddAfterPercentileResorts(t *testing.T) {
	var l Latency
	l.Add(5 * time.Millisecond)
	_ = l.Percentile(50)
	l.Add(1 * time.Millisecond)
	if l.Percentile(0) != 1*time.Millisecond {
		t.Fatal("sort cache stale after Add")
	}
}

func TestTimeSeriesBinning(t *testing.T) {
	ts := NewTimeSeries(500 * time.Millisecond)
	ts.Record(simnet.Time(100*time.Millisecond), 10*time.Millisecond) // bin 0
	ts.Record(simnet.Time(400*time.Millisecond), 30*time.Millisecond) // bin 0
	ts.Record(simnet.Time(700*time.Millisecond), 50*time.Millisecond) // bin 1
	if ts.Bins() != 2 {
		t.Fatalf("bins %d", ts.Bins())
	}
	if got := ts.Throughput(0); got != 4 { // 2 events / 0.5s
		t.Fatalf("tput0 %v", got)
	}
	if got := ts.MeanLatency(0); got != 20*time.Millisecond {
		t.Fatalf("lat0 %v", got)
	}
	if got := ts.MeanLatency(1); got != 50*time.Millisecond {
		t.Fatalf("lat1 %v", got)
	}
	if ts.Throughput(5) != 0 || ts.MeanLatency(5) != 0 {
		t.Fatal("out-of-range bins not zero")
	}
}

func TestTimeSeriesDefaultBin(t *testing.T) {
	ts := NewTimeSeries(0)
	if ts.Bin != 500*time.Millisecond {
		t.Fatalf("default bin %v", ts.Bin)
	}
}

func TestBreakdown(t *testing.T) {
	var b Breakdown
	b.Add(StageSend, 10*time.Millisecond)
	b.Add(StageSend, 30*time.Millisecond)
	b.Add(StageGlobal, 100*time.Millisecond)
	if got := b.Mean(StageSend); got != 20*time.Millisecond {
		t.Fatalf("send mean %v", got)
	}
	if got := b.Mean(StagePartial); got != 0 {
		t.Fatalf("unset stage mean %v", got)
	}
	if got := b.Total(); got != 120*time.Millisecond {
		t.Fatalf("total %v", got)
	}
	// Negative durations (clock skew artifacts) must be ignored.
	b.Add(StageReply, -time.Second)
	if b.Mean(StageReply) != 0 {
		t.Fatal("negative sample recorded")
	}
}

func TestStageStrings(t *testing.T) {
	want := []string{"Send", "Preprocessing", "Partial ordering", "Global ordering", "Reply"}
	for i, s := range Stages() {
		if s.String() != want[i] {
			t.Fatalf("stage %d = %q", i, s.String())
		}
	}
}

// TestSummaryMatchesAccessors: Summary is the five accessors it replaced at
// every call site, in the public rendering, for an empty distribution too.
func TestSummaryMatchesAccessors(t *testing.T) {
	var l Latency
	if got := l.Summary(); got != (Summary{}) {
		t.Fatalf("empty distribution summarizes to %+v", got)
	}
	for _, ms := range []int{40, 10, 30, 20, 1500} {
		l.Add(time.Duration(ms) * time.Millisecond)
	}
	want := Summary{Count: l.Count(), Mean: l.Mean(), P50: l.Percentile(50), P99: l.Percentile(99), Max: l.Max()}
	if got := l.Summary(); got != want || got.Count != 5 || got.Max != 1500*time.Millisecond {
		t.Fatalf("Summary() = %+v, accessors say %+v", got, want)
	}
	if got, want := want.String(), "mean=0.32s p50=0.03s p99=0.04s max=1.50s n=5"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestWindowMatchesAccessors: Window(i) is the per-bin accessors and the bin
// bounds it replaced at every call site — filled, empty and out-of-range
// bins, and a series with no bins at all.
func TestWindowMatchesAccessors(t *testing.T) {
	ts := NewTimeSeries(500 * time.Millisecond)
	if got, want := ts.Window(0), (WindowStat{End: 500 * time.Millisecond}); got != want {
		t.Fatalf("empty series: Window(0) = %+v, want %+v", got, want)
	}
	ts.Record(simnet.Time(100*time.Millisecond), 20*time.Millisecond)
	ts.Record(simnet.Time(400*time.Millisecond), 40*time.Millisecond)
	ts.Record(simnet.Time(1200*time.Millisecond), 70*time.Millisecond) // bin 2; bin 1 stays empty
	for i := 0; i <= ts.Bins(); i++ {
		want := WindowStat{
			Index: i, Start: time.Duration(i) * ts.Bin, End: time.Duration(i+1) * ts.Bin,
			Confirmed: ts.Count(i), ThroughputTPS: ts.Throughput(i), MeanLatency: ts.MeanLatency(i),
		}
		if got := ts.Window(i); got != want {
			t.Fatalf("Window(%d) = %+v, accessors say %+v", i, got, want)
		}
	}
	if w := ts.Window(0); w.Confirmed != 2 || w.ThroughputTPS != 4 || w.MeanLatency != 30*time.Millisecond {
		t.Fatalf("Window(0) = %+v, want 2 confirmations, 4 tps, 30ms", w)
	}
}
