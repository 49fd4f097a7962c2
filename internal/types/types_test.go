package types

import (
	"testing"
	"testing/quick"
)

func TestTxKindClassification(t *testing.T) {
	pay := NewPayment("alice", "bob", 10, 1)
	if pay.Kind() != Payment {
		t.Fatalf("payment classified as %v", pay.Kind())
	}
	con := NewContractCall("alice", []Key{"alice"}, 1, []Op{NewSharedAssign("rec", 7)}, 1)
	if con.Kind() != Contract {
		t.Fatalf("contract classified as %v", con.Kind())
	}
	// A transaction with only owned objects but an assign is invalid, and a
	// read on shared state is a contract.
	read := &Transaction{Client: "alice", Ops: []Op{
		{Key: "alice", Type: Owned, Kind: OpDecrement, Amount: 1},
		NewSharedRead("rec"),
	}}
	if read.Kind() != Contract {
		t.Fatalf("shared read classified as %v", read.Kind())
	}
}

func TestTxPayers(t *testing.T) {
	tx := NewMultiPayment("alice", []Transfer{
		{From: "alice", To: "carol", Amount: 1},
		{From: "bob", To: "carol", Amount: 1},
		{From: "alice", To: "dave", Amount: 2},
	}, 1)
	payers := tx.Payers()
	if len(payers) != 2 || payers[0] != "alice" || payers[1] != "bob" {
		t.Fatalf("payers = %v, want [alice bob]", payers)
	}
	if tx.TotalDebit() != 4 || tx.TotalCredit() != 4 || !tx.Balanced() {
		t.Fatalf("debit=%d credit=%d", tx.TotalDebit(), tx.TotalCredit())
	}
	// A payer repeated across raw ops is listed once, where it first appears.
	raw := &Transaction{Client: "bob", Ops: []Op{
		{Key: "bob", Type: Owned, Kind: OpDecrement, Amount: 1},
		{Key: "alice", Type: Owned, Kind: OpDecrement, Amount: 1},
		{Key: "bob", Type: Owned, Kind: OpDecrement, Amount: 1},
		{Key: "alice", Type: Owned, Kind: OpIncrement, Amount: 3},
	}}
	if payers := raw.Payers(); len(payers) != 2 || payers[0] != "bob" || payers[1] != "alice" {
		t.Fatalf("payers = %v, want [bob alice]", payers)
	}
	if payers := (&Transaction{Ops: raw.Ops[3:]}).Payers(); payers != nil {
		t.Fatalf("payers of a credit-only transaction = %v, want none", payers)
	}
}

func TestTxIDDeterministicAndDistinct(t *testing.T) {
	a := NewPayment("alice", "bob", 10, 1)
	b := NewPayment("alice", "bob", 10, 1)
	if a.ID() != b.ID() {
		t.Fatal("identical transactions have different IDs")
	}
	c := NewPayment("alice", "bob", 10, 2)
	if a.ID() == c.ID() {
		t.Fatal("different nonces produced the same ID")
	}
	d := NewPayment("alice", "bob", 11, 1)
	if a.ID() == d.ID() {
		t.Fatal("different amounts produced the same ID")
	}
}

func TestTxValidate(t *testing.T) {
	if err := NewPayment("alice", "bob", 10, 1).Validate(); err != nil {
		t.Fatalf("valid payment rejected: %v", err)
	}
	bad := &Transaction{Client: "a"}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty tx accepted")
	}
	neg := &Transaction{Client: "a", Ops: []Op{{Key: "a", Type: Owned, Kind: OpDecrement, Amount: -1}}}
	if err := neg.Validate(); err == nil {
		t.Fatal("negative amount accepted")
	}
	assignOwned := &Transaction{Client: "a", Ops: []Op{{Key: "a", Type: Owned, Kind: OpAssign, Amount: 1}}}
	if err := assignOwned.Validate(); err == nil {
		t.Fatal("assign on owned object accepted")
	}
	noOwned := &Transaction{Client: "a", Ops: []Op{NewSharedAssign("r", 1)}}
	if err := noOwned.Validate(); err == nil {
		t.Fatal("tx without owned object accepted")
	}
}

func TestStateVectorCovers(t *testing.T) {
	s := StateVector{3, 2, 5}
	cases := []struct {
		t    StateVector
		want bool
	}{
		{StateVector{3, 2, 5}, true},
		{StateVector{0, 0, 0}, true},
		{StateVector{}, true},
		{StateVector{3, 2}, true},
		{StateVector{4, 2, 5}, false},
		{StateVector{3, 2, 5, 0}, false},
	}
	for i, c := range cases {
		if got := s.Covers(c.t); got != c.want {
			t.Errorf("case %d: Covers(%v) = %v, want %v", i, c.t, got, c.want)
		}
	}
	if !s.Equal(StateVector{3, 2, 5}) || s.Equal(StateVector{3, 2}) {
		t.Fatal("Equal misbehaves")
	}
	if s.String() != "(3,2,5)" {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestStateVectorCoversReflexiveProperty(t *testing.T) {
	f := func(raw []uint64) bool {
		s := StateVector(raw)
		return s.Covers(s) && s.Covers(s.Clone()) && s.Equal(s.Clone())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOrderKeyLess(t *testing.T) {
	a := OrderKey{Rank: 1, Instance: 0}
	b := OrderKey{Rank: 1, Instance: 1}
	c := OrderKey{Rank: 2, Instance: 0}
	if !a.Less(b) || !b.Less(c) || !a.Less(c) {
		t.Fatal("ordering broken")
	}
	if a.Less(a) {
		t.Fatal("irreflexivity broken")
	}
}

func TestOrderKeyTotalOrderProperty(t *testing.T) {
	f := func(r1, r2 uint64, i1, i2 uint8) bool {
		a := OrderKey{Rank: r1, Instance: int(i1)}
		b := OrderKey{Rank: r2, Instance: int(i2)}
		if a == b {
			return !a.Less(b) && !b.Less(a)
		}
		// Exactly one of a<b, b<a holds for distinct keys.
		return a.Less(b) != b.Less(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockDigest(t *testing.T) {
	tx := NewPayment("alice", "bob", 10, 1)
	b1 := &Block{Instance: 0, SN: 1, Rank: 3, State: StateVector{1, 0}, Txs: []Transaction{*tx}}
	b2 := &Block{Instance: 0, SN: 1, Rank: 3, State: StateVector{1, 0}, Txs: []Transaction{*tx}}
	if b1.Digest() != b2.Digest() {
		t.Fatal("identical blocks have different digests")
	}
	b3 := &Block{Instance: 0, SN: 2, Rank: 3, State: StateVector{1, 0}, Txs: []Transaction{*tx}}
	if b1.Digest() == b3.Digest() {
		t.Fatal("different SN produced identical digest")
	}
	b4 := &Block{Instance: 1, SN: 1, Rank: 3, State: StateVector{1, 0}, Txs: []Transaction{*tx}}
	if b1.Digest() == b4.Digest() {
		t.Fatal("different instance produced identical digest")
	}
}

func TestSortBlocks(t *testing.T) {
	bs := []*Block{
		{Instance: 2, Rank: 5},
		{Instance: 0, Rank: 5},
		{Instance: 1, Rank: 3},
	}
	SortBlocks(bs)
	if bs[0].Rank != 3 || bs[1].Instance != 0 || bs[2].Instance != 2 {
		t.Fatalf("sorted order wrong: %+v", bs)
	}
}

func TestMultiPaymentAggregation(t *testing.T) {
	tx := NewMultiPayment("alice", []Transfer{
		{From: "alice", To: "bob", Amount: 3},
		{From: "alice", To: "bob", Amount: 4},
	}, 9)
	if len(tx.Ops) != 2 {
		t.Fatalf("expected aggregated ops, got %d", len(tx.Ops))
	}
	if tx.Ops[0].Amount != 7 || tx.Ops[1].Amount != 7 {
		t.Fatalf("aggregation wrong: %+v", tx.Ops)
	}
}

func TestContractCallShape(t *testing.T) {
	tx := NewContractCall("alice", []Key{"alice", "bob"}, 1, []Op{NewSharedAssign("rec", 42)}, 0)
	if tx.Kind() != Contract {
		t.Fatal("contract call not classified as contract")
	}
	payers := tx.Payers()
	if len(payers) != 2 {
		t.Fatalf("payers = %v", payers)
	}
	if tx.TotalDebit() != 2 {
		t.Fatalf("debit = %d", tx.TotalDebit())
	}
}
