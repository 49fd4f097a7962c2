package core

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/partition"
	"repro/internal/types"
)

// brokeIn returns an unfunded account whose bucket (m = 4) satisfies ok.
func brokeIn(ok func(bucket int) bool) types.Key {
	for i := 0; ; i++ {
		if k := types.Key(fmt.Sprintf("broke-%d", i)); ok(partition.Assign(k, 4)) {
			return k
		}
	}
}

// deliverTo runs one crafted block holding tx through instance's escrow
// phase.
func deliverTo(r *Replica, instance int, tx *types.Transaction) {
	b := &types.Block{Instance: instance, Txs: []types.Transaction{*tx}}
	r.execPartial(instance, b)
}

// TestEscrowRollback: a payment whose last payer leg cannot escrow aborts
// and leaves nothing held, whichever step returns the legs that did hold —
// the failing escrow call itself, or settle for the route entries before
// it. Genesis funds alice (100) and bob (50); the broke payer has nothing.
func TestEscrowRollback(t *testing.T) {
	settled := func(t *testing.T, r *Replica) {
		t.Helper()
		if a, b := r.store.Balance("alice"), r.store.Balance("bob"); a != 100 || b != 50 {
			t.Fatalf("balances alice %d bob %d, want 100 and 50", a, b)
		}
		if got := r.store.TotalOwned(); got != 150 {
			t.Fatalf("TotalOwned = %d, want 150", got)
		}
		if n := r.store.EscrowCount(); n != 0 {
			t.Fatalf("EscrowCount = %d, want 0", n)
		}
		if ok, bad := r.Confirmed(); ok != 0 || bad != 1 {
			t.Fatalf("confirmed %d ok / %d aborted, want one abort", ok, bad)
		}
	}
	pay := func(funded, broke types.Key) *types.Transaction {
		return types.NewMultiPayment(funded, []types.Transfer{
			{From: funded, To: "carol", Amount: 10},
			{From: broke, To: "carol", Amount: 5},
		}, 1)
	}

	t.Run("no-split call returns its own legs", func(t *testing.T) {
		mode := OrthrusMode()
		mode.SplitMultiPayer = false
		r := newBareReplica(t, mode)
		tx := pay("alice", brokeIn(func(int) bool { return true }))
		deliverTo(r, int(r.route(r.track(tx))[0]), tx)
		settled(t, r)
	})

	t.Run("split settle returns the instance that held", func(t *testing.T) {
		r := newBareReplica(t, OrthrusMode())
		alice := partition.Assign("alice", 4)
		broke := brokeIn(func(b int) bool { return b != alice })
		tx := pay("alice", broke)
		deliverTo(r, alice, tx)
		if a, n := r.store.Balance("alice"), r.store.EscrowCount(); a != 90 || n != 1 {
			t.Fatalf("after alice's instance: balance %d, %d escrows; want 90 held in 1", a, n)
		}
		deliverTo(r, partition.Assign(broke, 4), tx)
		settled(t, r)
	})

	t.Run("global-log escrow fails midway through the route", func(t *testing.T) {
		mode := OrthrusMode()
		mode.FastPathPayments = false // every leg escrows at the global log
		r := newBareReplica(t, mode)
		bob := partition.Assign("bob", 4)
		tx := pay("bob", brokeIn(func(b int) bool { return b > bob }))
		route := r.route(r.track(tx))
		if len(route) != 2 || int(route[0]) != bob {
			t.Fatalf("route %v, want bob's bucket %d first of two", route, bob)
		}
		// Both occurrences reach the global log; the last executes it.
		var blocks []*types.Block
		for _, inst := range route {
			blocks = append(blocks, &types.Block{Instance: int(inst), Txs: []types.Transaction{*tx}})
		}
		r.enqueueGlobal(blocks)
		r.drainGlogQueue()
		settled(t, r)
	})
}

// TestTrackerSize: a replica holds one tracker per transaction until
// checkpoint GC, so its size is resident bytes per transaction per
// replica. It holds only the replica's mutable state: what a resolution
// holds (ID, handles, route, legs) is kept once per resolver.
func TestTrackerSize(t *testing.T) {
	if got := unsafe.Sizeof(txTracker{}); got > 56 {
		t.Fatalf("txTracker is %d bytes, want at most 56", got)
	}
}

// TestQueuedEntryOfReleasedTracker: checkpoint GC can release a tracker
// while a route bucket still queues its transaction (stray global-log
// occurrences finish it early), so a leader judging the entry reads the
// handles of the resolution its table record keeps, not the released
// tracker.
func TestQueuedEntryOfReleasedTracker(t *testing.T) {
	r := newBareReplica(t, OrthrusMode())
	credit := func(k types.Key) types.Op {
		return types.Op{Key: k, Type: types.Owned, Kind: types.OpIncrement, Amount: 1}
	}
	// Five ops, the payer last: its handle lives past the inline array.
	tx := &types.Transaction{Client: "alice", Ops: []types.Op{
		credit("a"), credit("b"), credit("c"), credit("d"),
		{Key: "alice", Type: types.Owned, Kind: types.OpDecrement, Amount: 200},
	}}
	if err := r.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	inst := partition.Assign("alice", 4)
	e, _, ok := r.buckets.Bucket(inst).Oldest()
	if !ok {
		t.Fatal("transaction not queued in alice's bucket")
	}
	*r.tracker(e.Slot) = txTracker{} // what gcEpoch leaves of a released tracker
	if r.legFeasible(e.Tx, r.queued(e), inst) {
		t.Fatal("200 from alice's 100 judged feasible")
	}
	r.store.Credit("alice", 100)
	if !r.legFeasible(e.Tx, r.queued(e), inst) {
		t.Fatal("200 from alice's 200 judged infeasible")
	}
}

// TestTrackedAfreshAfterRelease: a block can carry a transaction again
// after the checkpoint GC released its tracker (a leader proposing it off
// its route, or a resubmission once its record was freed). A global-log
// occurrence queued before that GC and a delivery after it both find a
// fresh tracker, never the released one: the transaction is a new arrival
// and executes again. That holds whether its resolution outlived the GC
// (its bucket still queues it, so the memo still names the slot) or was
// recycled for another transaction (the memo is stale and the content
// index answers).
func TestTrackedAfreshAfterRelease(t *testing.T) {
	for _, kept := range []bool{true, false} {
		t.Run(fmt.Sprintf("resolution kept %v", kept), func(t *testing.T) {
			r := newBareReplica(t, OrthrusMode())
			pay := types.NewPayment("alice", "bob", 10, 1)
			inst := partition.Assign("alice", 4)
			occurrence := func() []*types.Block {
				return []*types.Block{{Instance: inst, Txs: []types.Transaction{*pay}}}
			}
			if kept {
				if err := r.SubmitTx(pay); err != nil {
					t.Fatal(err)
				}
			}
			slot := r.track(pay).slot
			deliverTo(r, inst, pay) // the fast path confirms it
			r.enqueueGlobal(occurrence())
			r.drainGlogQueue() // its one occurrence passes: the tracker is finished
			r.enqueueGlobal(occurrence())
			r.gcEpoch()
			if r.tracker(slot).live {
				t.Fatal("the checkpoint GC kept the finished tracker")
			}
			other := slot
			if !kept {
				other = r.track(types.NewPayment("bob", "carol", 5, 2)).slot
				if other != slot {
					t.Fatalf("slot %d was not recycled (got %d)", slot, other)
				}
			}
			r.drainGlogQueue()
			tr := r.track(pay)
			if !tr.live || tr.done || tr.occurSeen != 1 {
				t.Fatalf("occurrence after the GC: live %v done %v occurrences %d, want a fresh tracker that counted it", tr.live, tr.done, tr.occurSeen)
			}
			if kept != (tr.slot == slot) {
				t.Fatalf("tracked at slot %d (released slot %d, resolution kept %v)", tr.slot, slot, kept)
			}
			deliverTo(r, inst, pay)
			if a, b := r.store.Balance("alice"), r.store.Balance("bob"); a != 80 || b != 70 {
				t.Fatalf("alice %d bob %d, want 80 and 70: the new arrival executes once more", a, b)
			}
			if ok, bad := r.Confirmed(); ok != 2 || bad != 0 || r.store.EscrowCount() != 0 {
				t.Fatalf("confirmed %d ok / %d aborted, %d escrows open; want 2 / 0 / 0", ok, bad, r.store.EscrowCount())
			}
		})
	}
}
