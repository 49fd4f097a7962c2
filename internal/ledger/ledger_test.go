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
