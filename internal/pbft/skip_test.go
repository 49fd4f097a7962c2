package pbft

import (
	"testing"
)

// TestSkipDeliveredRepairsGapAndResumesLive is the state-transfer engine
// contract: a replica that missed deliveries while crashed replays them
// through SkipDelivered after Resume, its log converges with the live
// replicas', and subsequent live deliveries flow through the normal path.
func TestSkipDeliveredRepairsGapAndResumesLive(t *testing.T) {
	h := newHarness(t, 4, 1, nil)
	h.engines[3].Stop()
	for sn := uint64(0); sn < 3; sn++ {
		if err := h.engines[0].Propose(mkBlock(sn, 1)); err != nil {
			t.Fatalf("propose %d: %v", sn, err)
		}
	}
	h.sim.RunAll(0)
	if len(h.delivered[3]) != 0 {
		t.Fatalf("stopped engine delivered %d blocks", len(h.delivered[3]))
	}
	if len(h.delivered[0]) != 3 {
		t.Fatalf("live engine delivered %d blocks, want 3", len(h.delivered[0]))
	}

	// Catch-up: replay the gap in order. Each skip must fire OnDeliver (the
	// replica's execution path rides on it) and advance the cursor.
	h.engines[3].Resume()
	if h.engines[3].SkipDelivered(h.delivered[0][1]) {
		t.Fatal("off-cursor skip accepted")
	}
	if h.engines[3].SkipDelivered(nil) {
		t.Fatal("nil skip accepted")
	}
	for _, b := range h.delivered[0] {
		if !h.engines[3].SkipDelivered(b) {
			t.Fatalf("skip of SN %d rejected at the cursor", b.SN)
		}
	}
	if h.engines[3].SkipDelivered(h.delivered[0][0]) {
		t.Fatal("re-skip below the cursor accepted (pre-checkpoint replay)")
	}
	if len(h.delivered[3]) != 3 {
		t.Fatalf("catch-up delivered %d blocks, want 3", len(h.delivered[3]))
	}
	for i, b := range h.delivered[3] {
		if b.Digest() != h.delivered[0][i].Digest() {
			t.Fatalf("catch-up block %d diverges from the live log", i)
		}
	}

	// The repaired engine is live again: the next proposal delivers through
	// the normal commit path on all four replicas.
	if err := h.engines[0].Propose(mkBlock(3, 1)); err != nil {
		t.Fatal(err)
	}
	h.sim.RunAll(0)
	for i, d := range h.delivered {
		if len(d) != 4 || d[3].SN != 3 {
			t.Fatalf("replica %d log length %d after recovery, want 4", i, len(d))
		}
	}
}

// TestSkipDeliveredFlushesCommittedAbove: blocks that committed while the
// gap was open (the engine voted before crashing, or certificates arrived
// after Resume) must deliver through tryDeliver as soon as a skip fills the
// sequence right below them.
func TestSkipDeliveredFlushesCommittedAbove(t *testing.T) {
	h := newHarness(t, 4, 1, nil)
	// Deliver SN 0 everywhere, then cut replica 3 off and run SN 1-2.
	if err := h.engines[0].Propose(mkBlock(0, 1)); err != nil {
		t.Fatal(err)
	}
	h.sim.RunAll(0)
	h.engines[3].Stop()
	for sn := uint64(1); sn < 3; sn++ {
		if err := h.engines[0].Propose(mkBlock(sn, 1)); err != nil {
			t.Fatal(err)
		}
	}
	h.sim.RunAll(0)
	// Resume and let the next live sequence (SN 3) commit at replica 3; it
	// parks above the gap (SN 1-2 missing), then a catch-up skip of the gap
	// flushes it.
	h.engines[3].Resume()
	if err := h.engines[0].Propose(mkBlock(3, 1)); err != nil {
		t.Fatal(err)
	}
	h.sim.RunAll(0)
	if n := len(h.delivered[3]); n != 1 {
		t.Fatalf("replica 3 delivered %d blocks with the gap open, want 1", n)
	}
	for sn := uint64(1); sn < 3; sn++ {
		if !h.engines[3].SkipDelivered(h.delivered[0][sn]) {
			t.Fatalf("skip of SN %d rejected", sn)
		}
	}
	if n := len(h.delivered[3]); n != 4 {
		t.Fatalf("replica 3 delivered %d blocks after gap repair, want 4 (committed SN 3 must flush)", n)
	}
	for i, b := range h.delivered[3] {
		if b.SN != uint64(i) {
			t.Fatalf("position %d holds SN %d; delivery order broken", i, b.SN)
		}
	}
}

// TestReleaseBelowDropsRetainedRing: checkpoint GC trims the engine's
// delivered-block log from below, Log serves what is left from any
// starting point, and NewView re-proposals reach back only the last
// RetainDelivered deliveries however long the log is.
func TestReleaseBelowDropsRetainedRing(t *testing.T) {
	h := newHarness(t, 4, 1, nil)
	deliver := func(from, to uint64) {
		for sn := from; sn < to; sn++ { // one at a time: the window is 4 deep
			if err := h.engines[0].Propose(mkBlock(sn, 1)); err != nil {
				t.Fatal(err)
			}
			h.sim.RunAll(0)
		}
	}
	e := h.engines[1]
	// logged reports the SNs Log(from) returns as [first, first+len).
	logged := func(from uint64) (first uint64, n int) {
		run := e.Log(from)
		for i, b := range run {
			if b.SN != run[0].SN+uint64(i) {
				t.Fatalf("Log(%d) is not contiguous at %d", from, i)
			}
		}
		if len(run) == 0 {
			return 0, 0
		}
		return run[0].SN, len(run)
	}
	deliver(0, 5)
	if first, n := logged(0); first != 0 || n != 5 {
		t.Fatalf("Log(0) = %d blocks from %d after 5 deliveries, want 5 from 0", n, first)
	}
	if first, n := logged(3); first != 3 || n != 2 {
		t.Fatalf("Log(3) = %d blocks from %d, want 2 from 3", n, first)
	}
	if _, n := logged(5); n != 0 {
		t.Fatalf("Log at the cursor returned %d blocks", n)
	}
	e.ReleaseBelow(3)
	if first, n := logged(0); first != 3 || n != 2 {
		t.Fatalf("Log(0) = %d blocks from %d after ReleaseBelow(3), want 2 from 3", n, first)
	}
	e.ReleaseBelow(3) // idempotent
	if first, n := logged(0); first != 3 || n != 2 {
		t.Fatalf("repeat ReleaseBelow changed the log: %d blocks from %d", n, first)
	}
	e.ReleaseBelow(100)
	if _, n := logged(0); n != 0 {
		t.Fatalf("Log(0) = %d blocks after releasing everything, want 0", n)
	}
	deliver(5, 45)
	if first, n := logged(0); first != 5 || n != 40 {
		t.Fatalf("Log(0) = %d blocks from %d, want 40 from 5", n, first)
	}
	if e.retainedBlock(12) != nil || e.retainedBlock(13) == nil || e.retainedBlock(44) == nil || e.retainedBlock(45) != nil {
		t.Fatalf("NewView reaches past the last %d deliveries, or not all of them", RetainDelivered)
	}
}
