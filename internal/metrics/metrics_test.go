package metrics

import (
	"testing"
	"testing/quick"
	"time"
)

func TestLatencyEmpty(t *testing.T) {
	if got := Summarize(nil); got != (Summary{}) {
		t.Fatalf("empty distribution summarizes to %+v", got)
	}
}

// TestLatencyStats pins the percentile index, int(p/100 × (n−1)) of the
// sorted samples: 49 and 98 of 1..100 ms.
func TestLatencyStats(t *testing.T) {
	var l []time.Duration
	for i := 100; i >= 1; i-- {
		l = append(l, time.Duration(i)*time.Millisecond)
	}
	want := Summary{Count: 100, Mean: 50500 * time.Microsecond, P50: 50 * time.Millisecond, P99: 99 * time.Millisecond, Max: 100 * time.Millisecond}
	if got := Summarize(l); got != want {
		t.Fatalf("Summarize = %+v, want %+v", got, want)
	}
}

func TestLatencyPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		l := make([]time.Duration, len(raw))
		lo := time.Duration(raw[0])
		for i, v := range raw {
			l[i] = time.Duration(v)
			lo = min(lo, l[i])
		}
		s := Summarize(l)
		return s.Count == len(raw) && lo <= s.P50 && s.P50 <= s.P99 && s.P99 <= s.Max && s.Mean <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTimeSeriesBinning: a bin counts the replies that landed in it, its
// rate is the count over 0.5 s and its latency their mean; bins past the
// last reply are empty.
func TestTimeSeriesBinning(t *testing.T) {
	var s Series
	s.Add(100*time.Millisecond, 10*time.Millisecond) // bin 0
	s.Add(400*time.Millisecond, 30*time.Millisecond) // bin 0
	s.Add(700*time.Millisecond, 50*time.Millisecond) // bin 1
	if len(s) != 2 {
		t.Fatalf("bins %d", len(s))
	}
	if got := s.Window(0).ThroughputTPS; got != 4 { // 2 replies / 0.5s
		t.Fatalf("tput0 %v", got)
	}
	if got := s.Window(0).MeanLatency; got != 20*time.Millisecond {
		t.Fatalf("lat0 %v", got)
	}
	if got := s.Window(1).MeanLatency; got != 50*time.Millisecond {
		t.Fatalf("lat1 %v", got)
	}
	if w := s.Window(5); w.Confirmed != 0 || w.ThroughputTPS != 0 || w.MeanLatency != 0 {
		t.Fatal("out-of-range bins not zero")
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

// TestSummaryMatchesAccessors: Summarize is what the five accessors it
// replaced computed — count, integer mean, the percentile at index
// int(p/100 × (n−1)) of the sorted samples, maximum — whatever order the
// samples arrive in, in the public rendering.
func TestSummaryMatchesAccessors(t *testing.T) {
	l := []time.Duration{40, 10, 30, 20, 1500}
	for i := range l {
		l[i] *= time.Millisecond
	}
	want := Summary{Count: 5, Mean: 320 * time.Millisecond, P50: 30 * time.Millisecond, P99: 40 * time.Millisecond, Max: 1500 * time.Millisecond}
	if got := Summarize(l); got != want {
		t.Fatalf("Summarize = %+v, want %+v", got, want)
	}
	if got, want := want.String(), "mean=0.32s p50=0.03s p99=0.04s max=1.50s n=5"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestWindowMatchesAccessors: Window(i) is the record the per-bin accessors
// it replaced made — filled, empty and out-of-range bins carry their bin's
// bounds, and a series with no bins at all yields empty windows.
func TestWindowMatchesAccessors(t *testing.T) {
	var s Series
	if got, want := s.Window(0), (WindowStat{End: BinWidth}); got != want {
		t.Fatalf("empty series: Window(0) = %+v, want %+v", got, want)
	}
	s.Add(100*time.Millisecond, 20*time.Millisecond)
	s.Add(400*time.Millisecond, 40*time.Millisecond)
	s.Add(1200*time.Millisecond, 70*time.Millisecond) // bin 2; bin 1 stays empty
	want := []WindowStat{
		{Index: 0, Start: 0, End: BinWidth, Confirmed: 2, ThroughputTPS: 4, MeanLatency: 30 * time.Millisecond},
		{Index: 1, Start: BinWidth, End: 2 * BinWidth},
		{Index: 2, Start: 2 * BinWidth, End: 3 * BinWidth, Confirmed: 1, ThroughputTPS: 2, MeanLatency: 70 * time.Millisecond},
		{Index: 3, Start: 3 * BinWidth, End: 4 * BinWidth},
	}
	if len(s) != 3 {
		t.Fatalf("%d bins, want 3", len(s))
	}
	for i, w := range want {
		if got := s.Window(i); got != w {
			t.Fatalf("Window(%d) = %+v, want %+v", i, got, w)
		}
	}
}
