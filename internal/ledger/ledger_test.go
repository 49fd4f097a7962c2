package ledger

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func TestEscrowBasic(t *testing.T) {
	s := NewStore()
	s.Credit("alice", 10)
	tx := types.NewPayment("alice", "bob", 4, 1)
	op := tx.Ops[0]
	if !s.Escrow(op, tx.ID()) {
		t.Fatal("escrow of affordable amount failed")
	}
	if s.Balance("alice") != 6 {
		t.Fatalf("balance after escrow = %d", s.Balance("alice"))
	}
	if s.EscrowCount() != 1 {
		t.Fatal("escrow not recorded")
	}
	s.CommitEscrow(tx.ID())
	if s.Balance("alice") != 6 {
		t.Fatalf("commit changed balance: %d", s.Balance("alice"))
	}
	if s.EscrowCount() != 0 {
		t.Fatal("elog not cleaned after commit")
	}
}

func TestEscrowInsufficientFunds(t *testing.T) {
	s := NewStore()
	s.Credit("alice", 3)
	tx := types.NewPayment("alice", "bob", 4, 1)
	if s.Escrow(tx.Ops[0], tx.ID()) {
		t.Fatal("escrow beyond balance succeeded")
	}
	if s.Balance("alice") != 3 {
		t.Fatalf("failed escrow mutated balance: %d", s.Balance("alice"))
	}
	if s.EscrowCount() != 0 {
		t.Fatal("failed escrow recorded in the escrow log")
	}
}

func TestEscrowRespectsCondition(t *testing.T) {
	s := NewStore()
	s.Credit("alice", 10)
	op := types.Op{Key: "alice", Type: types.Owned, Kind: types.OpDecrement, Amount: 6, Con: 5}
	tx := &types.Transaction{Client: "alice", Ops: []types.Op{op}}
	if s.Escrow(op, tx.ID()) {
		t.Fatal("escrow violating condition (10-6 < 5) succeeded")
	}
	op2 := types.Op{Key: "alice", Type: types.Owned, Kind: types.OpDecrement, Amount: 5, Con: 5}
	if !s.Escrow(op2, tx.ID()) {
		t.Fatal("escrow exactly at condition failed")
	}
}

func TestAbortEscrowRefunds(t *testing.T) {
	s := NewStore()
	s.Credit("alice", 10)
	s.Credit("bob", 5)
	tx := types.NewMultiPayment("alice", []types.Transfer{
		{From: "alice", To: "carol", Amount: 3},
		{From: "bob", To: "carol", Amount: 2},
	}, 1)
	for _, op := range tx.Ops {
		if op.IsPayerOp() {
			if !s.Escrow(op, tx.ID()) {
				t.Fatal("escrow failed")
			}
		}
	}
	if s.Balance("alice") != 7 || s.Balance("bob") != 3 {
		t.Fatal("escrow deductions wrong")
	}
	s.AbortEscrow(tx.ID())
	if s.Balance("alice") != 10 || s.Balance("bob") != 5 {
		t.Fatalf("abort did not refund: alice=%d bob=%d", s.Balance("alice"), s.Balance("bob"))
	}
	if s.EscrowCount() != 0 {
		t.Fatal("elog not cleaned after abort")
	}
}

func TestEscrowRejectsNonPayerOps(t *testing.T) {
	s := NewStore()
	s.Credit("alice", 10)
	inc := types.Op{Key: "alice", Type: types.Owned, Kind: types.OpIncrement, Amount: 1}
	if s.Escrow(inc, types.TxID{}) {
		t.Fatal("escrow of increment accepted")
	}
	sh := types.NewSharedAssign("rec", 1)
	if s.Escrow(sh, types.TxID{}) {
		t.Fatal("escrow of shared op accepted")
	}
}

func TestTotalOwnedConservedAcrossEscrowLifecycle(t *testing.T) {
	s := NewStore()
	s.Credit("alice", 100)
	s.Credit("bob", 50)
	before := s.TotalOwned()
	tx := types.NewPayment("alice", "bob", 30, 1)
	if !s.Escrow(tx.Ops[0], tx.ID()) {
		t.Fatal("escrow failed")
	}
	if s.TotalOwned() != before {
		t.Fatalf("escrow changed total: %d != %d", s.TotalOwned(), before)
	}
	s.CommitEscrow(tx.ID())
	if err := s.ApplyIncrement(tx.Ops[1]); err != nil {
		t.Fatal(err)
	}
	if s.TotalOwned() != before {
		t.Fatalf("commit+credit changed total: %d != %d", s.TotalOwned(), before)
	}
}

func TestApplyShared(t *testing.T) {
	s := NewStore()
	if _, err := s.ApplyShared(types.NewSharedAssign("rec", 42)); err != nil {
		t.Fatal(err)
	}
	if s.SharedValue("rec") != 42 {
		t.Fatalf("assign failed: %d", s.SharedValue("rec"))
	}
	v, err := s.ApplyShared(types.NewSharedRead("rec"))
	if err != nil || v != 42 {
		t.Fatalf("read = %d, %v", v, err)
	}
	if _, err := s.ApplyShared(types.Op{Key: "a", Type: types.Owned, Kind: types.OpAssign}); err == nil {
		t.Fatal("ApplyShared accepted owned object")
	}
	// Shared decrement below condition errors without mutating.
	s.SetShared("pool", 5)
	if _, err := s.ApplyShared(types.Op{Key: "pool", Type: types.Shared, Kind: types.OpDecrement, Amount: 10}); err == nil {
		t.Fatal("shared overdraft accepted")
	}
	if s.SharedValue("pool") != 5 {
		t.Fatal("failed shared decrement mutated state")
	}
}

func TestApplyIncrementValidation(t *testing.T) {
	s := NewStore()
	if err := s.ApplyIncrement(types.Op{Key: "a", Type: types.Owned, Kind: types.OpDecrement, Amount: 1}); err == nil {
		t.Fatal("ApplyIncrement accepted decrement")
	}
}

func TestSnapshotEqualityFoldsEscrows(t *testing.T) {
	a := NewStore()
	b := NewStore()
	for _, st := range []*Store{a, b} {
		st.Credit("alice", 10)
		st.Credit("bob", 5)
		st.SetShared("rec", 7)
	}
	// a has an in-flight escrow; snapshots must still match because the
	// escrowed amount is folded back.
	tx := types.NewPayment("alice", "bob", 3, 1)
	if !a.Escrow(tx.Ops[0], tx.ID()) {
		t.Fatal("escrow failed")
	}
	if !a.Snapshot().Equal(b.Snapshot()) {
		t.Fatal("snapshots with in-flight escrow differ")
	}
	// After commit+credit they genuinely differ.
	a.CommitEscrow(tx.ID())
	if a.Snapshot().Equal(b.Snapshot()) {
		t.Fatal("snapshots equal after committed transfer")
	}
}

func TestSnapshotOrderingCanonical(t *testing.T) {
	s := NewStore()
	s.Credit("zed", 1)
	s.Credit("alice", 2)
	snap := s.Snapshot()
	if snap.Owned[0].Key != "alice" || snap.Owned[1].Key != "zed" {
		t.Fatalf("snapshot not sorted: %+v", snap.Owned)
	}
}

// Property: escrow/abort is an exact inverse — any random sequence of
// escrows followed by aborting all of them restores initial balances, and
// total owned value is conserved throughout (Lemma 5 substrate).
func TestEscrowAbortInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		accounts := []types.Key{"a", "b", "c", "d"}
		initial := map[types.Key]types.Amount{}
		for _, k := range accounts {
			amt := types.Amount(rng.Intn(100))
			s.Credit(k, amt)
			initial[k] = amt
		}
		total := s.TotalOwned()
		var ids []types.TxID
		for i := 0; i < 20; i++ {
			from := accounts[rng.Intn(len(accounts))]
			to := accounts[rng.Intn(len(accounts))]
			tx := types.NewPayment(from, to, types.Amount(rng.Intn(40)), uint64(i))
			if s.Escrow(tx.Ops[0], tx.ID()) {
				ids = append(ids, tx.ID())
			}
			if s.TotalOwned() != total {
				return false
			}
		}
		for _, id := range ids {
			s.AbortEscrow(id)
		}
		for _, k := range accounts {
			if s.Balance(k) != initial[k] {
				return false
			}
		}
		return s.TotalOwned() == total && s.EscrowCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: balances never go negative no matter the escrow interleaving
// (no double spend at the store level).
func TestNoOverdraftProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		s.Credit("payer", types.Amount(rng.Intn(50)))
		for i := 0; i < 30; i++ {
			tx := types.NewPayment("payer", "payee", types.Amount(rng.Intn(20)), uint64(i))
			committed := s.Escrow(tx.Ops[0], tx.ID())
			if s.Balance("payer") < 0 {
				return false
			}
			if committed && rng.Intn(2) == 0 {
				s.AbortEscrow(tx.ID())
			} else if committed {
				s.CommitEscrow(tx.ID())
			}
		}
		return s.Balance("payer") >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: commutativity of successful payment sets (Lemma 2) — executing
// the same set of affordable payments in any permutation yields the same
// final balances.
func TestPaymentCommutativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		accounts := []types.Key{"a", "b", "c"}
		// Large initial balances so every payment succeeds regardless of order.
		mkStore := func() *Store {
			s := NewStore()
			for _, k := range accounts {
				s.Credit(k, 1_000_000)
			}
			return s
		}
		var txs []*types.Transaction
		for i := 0; i < 15; i++ {
			from := accounts[rng.Intn(len(accounts))]
			to := accounts[rng.Intn(len(accounts))]
			txs = append(txs, types.NewPayment(from, to, types.Amount(rng.Intn(100)), uint64(i)))
		}
		exec := func(order []int) Snapshot {
			s := mkStore()
			for _, i := range order {
				tx := txs[i]
				if !s.Escrow(tx.Ops[0], tx.ID()) {
					return Snapshot{} // should not happen
				}
				s.CommitEscrow(tx.ID())
				if err := s.ApplyIncrement(tx.Ops[1]); err != nil {
					return Snapshot{}
				}
			}
			return s.Snapshot()
		}
		fwd := make([]int, len(txs))
		for i := range fwd {
			fwd[i] = i
		}
		shuffled := append([]int(nil), fwd...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		return exec(fwd).Equal(exec(shuffled))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the handle operations are the TxID-keyed API's arithmetic. A
// random sequence of credits, escrows, commits, aborts, increments and
// shared assigns runs through Escrow/CommitEscrow/AbortEscrow on one store
// and through Hold/Release/Return on another, whose escrow records the test
// keeps itself (as a replica's trackers do); after every step the two
// stores must agree on every observable.
func TestHandleOpsMatchTxIDReferenceProperty(t *testing.T) {
	accounts := []types.Key{"a", "b", "c", "d", "never"}
	records := []types.Key{"r1", "r2"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref, hs := NewStore(), NewStore()
		txs := make([]types.TxID, 6)
		for i := range txs {
			txs[i][0] = byte(i + 1)
		}
		type leg struct {
			a      Handle
			amount types.Amount
		}
		legs := make([][]leg, len(txs)) // hs's escrow records, by tx
		settle := func(i int, commit bool) {
			if commit {
				ref.CommitEscrow(txs[i])
			} else {
				ref.AbortEscrow(txs[i])
			}
			for _, l := range legs[i] {
				if commit {
					hs.Release(l.a, l.amount)
				} else {
					hs.Return(l.a, l.amount)
				}
			}
			if len(legs[i]) > 0 {
				hs.CloseRecord()
			}
			legs[i] = nil
		}
		for step := 0; step < 60; step++ {
			k := accounts[rng.Intn(len(accounts))]
			amt := types.Amount(rng.Intn(40))
			switch rng.Intn(6) {
			case 0: // credit (never stays unwritten)
				if k != "never" {
					ref.Credit(k, amt)
					hs.Add(hs.Account(k), amt)
				}
			case 1: // escrow one payer op under a random tx
				i := rng.Intn(len(txs))
				con := types.Amount(rng.Intn(3)) * 5
				op := types.Op{Key: k, Type: types.Owned, Kind: types.OpDecrement, Amount: amt, Con: con}
				a := hs.Account(k)
				got := hs.Hold(a, amt, con)
				if got != ref.Escrow(op, txs[i]) {
					return false
				}
				if got {
					if len(legs[i]) == 0 {
						hs.OpenRecord()
					}
					legs[i] = append(legs[i], leg{a, amt})
				}
			case 2:
				settle(rng.Intn(len(txs)), true)
			case 3:
				settle(rng.Intn(len(txs)), false)
			case 4: // increment
				if k != "never" {
					op := types.Op{Key: k, Type: types.Owned, Kind: types.OpIncrement, Amount: amt}
					if ref.ApplyIncrement(op) != nil {
						return false
					}
					hs.Add(hs.Account(k), amt)
				}
			case 5: // shared assign
				op := types.NewSharedAssign(records[rng.Intn(len(records))], amt)
				v1, err1 := ref.ApplyShared(op)
				v2, err2 := hs.Apply(hs.Record(op.Key), op)
				if v1 != v2 || (err1 == nil) != (err2 == nil) {
					return false
				}
			}
			if !ref.Snapshot().Equal(hs.Snapshot()) || ref.TotalOwned() != hs.TotalOwned() ||
				ref.EscrowCount() != hs.EscrowCount() {
				return false
			}
			for _, k := range accounts {
				if ref.Balance(k) != hs.Balance(k) {
					return false
				}
			}
			for _, k := range records {
				if ref.SharedValue(k) != hs.SharedValue(k) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHandleOpsAllocs: once its keys are interned, the steady-state escrow
// cycle by handle — hold, release, return, credit, shared assign —
// allocates nothing.
func TestHandleOpsAllocs(t *testing.T) {
	s := NewStore()
	s.Credit("alice", 1000)
	a, b, r := s.Account("alice"), s.Account("bob"), s.Record("rec")
	assign := types.NewSharedAssign("rec", 7)
	allocs := testing.AllocsPerRun(1000, func() {
		if !s.Hold(a, 3, 0) || !s.Hold(a, 2, 0) {
			t.Fatal("hold failed")
		}
		s.Release(a, 3)
		s.Return(a, 2)
		s.Add(b, 3)
		s.Add(a, 3)
		if _, err := s.Apply(r, assign); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state handle ops allocate %.1f times per cycle, want 0", allocs)
	}
	if s.Balance("alice") != 1000 || s.TotalOwned() != 1000+3*1001 {
		t.Fatalf("cycle left alice %d, total %d", s.Balance("alice"), s.TotalOwned())
	}
}
