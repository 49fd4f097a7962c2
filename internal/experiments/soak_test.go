package experiments

import (
	"testing"
)

// TestSoakSmoke is the CI-scale bounded-memory gate: a floor-duration soak
// (n = 25, four virtual minutes, continuous crash/recover churn) whose
// live-set census must be flat after warmup. A retention leak anywhere in
// the checkpoint GC chain — slot logs, exec trackers, glog queues, archive
// rings, escrow records — shows up as the second-half peak pulling away
// from the first-half peak, because load is constant while virtual time
// accumulates. CI runs this under -race in the soak-smoke job; the full
// one-hour n = 100 profile is the F-soak figure itself.
func TestSoakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("minutes of virtual time; the soak-smoke CI job runs it")
	}
	figs, err := Run([]string{SoakID}, nil, 1, 0.01) // the 240 s floor at n = 25
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 1 || figs[0].Figure != SoakID || len(figs[0].Soak) != 1 {
		t.Fatalf("expected the soak figure with one cell, got %+v", figs)
	}
	cell := figs[0].Soak[0]
	t.Logf("confirmed=%d viewchanges=%d catchup=%d peak=%d first=%d second=%d final=%d samples=%d",
		cell.Confirmed, cell.ViewChanges, cell.CatchUpBlocks, cell.PeakLiveSet,
		cell.PeakFirstHalf, cell.PeakSecondHalf, cell.FinalLiveSet, len(cell.Samples))
	if len(cell.Samples) < 32 {
		t.Fatalf("census too sparse: %d samples", len(cell.Samples))
	}
	if cell.Confirmed == 0 {
		t.Fatal("soak confirmed nothing: the load never ran")
	}
	if cell.CatchUpBlocks == 0 {
		t.Fatal("churn produced no catch-up blocks: recoveries bypassed state transfer")
	}
	// The bounded-memory gate. Both halves see identical steady-state load,
	// so with working GC the peaks track each other; 1.25x headroom absorbs
	// churn-phase jitter (a replica mid-outage parks commits above its gap).
	if cell.PeakFirstHalf == 0 {
		t.Fatal("no first-half census: sampling misconfigured")
	}
	if lim := cell.PeakFirstHalf + cell.PeakFirstHalf/4; cell.PeakSecondHalf > lim {
		t.Fatalf("live set grew: second-half peak %d exceeds 1.25x first-half peak %d",
			cell.PeakSecondHalf, cell.PeakFirstHalf)
	}
	// Quiescence: after the drain the final census must be back near the
	// floor, not at the peak — retained state is released, not plateaued.
	if cell.FinalLiveSet > cell.PeakLiveSet/2 {
		t.Fatalf("final live set %d never drained below half the peak %d",
			cell.FinalLiveSet, cell.PeakLiveSet)
	}
}
