package core

import (
	"testing"

	"repro/internal/partition"
	"repro/internal/types"
)

// TestSharedPrefixStaysTwoTransactions is the identity bugfix: two IDs that
// share their leading eight bytes (the pair a client could grind for, and
// all the truncated-digest key looked at) hash to one content-index cell
// and must still resolve to two slots, as must a third behind them in the
// same probe chain; dropping the chain's head keeps the rest reachable.
func TestSharedPrefixStaysTwoTransactions(t *testing.T) {
	r := NewResolver(Config{N: 4, Mode: OrthrusMode()})
	id1 := types.NewPayment("alice", "bob", 1, 1).ID()
	id2 := id1
	id2[31] ^= 1 // same prefix, different transaction
	id3 := id1
	id3[8] ^= 1
	if hash(&id1) != hash(&id2) || hash(&id1) != hash(&id3) {
		t.Fatal("the constructed IDs do not collide")
	}
	intern := func(id types.TxID) partition.Slot {
		s, fresh := r.intern(&id)
		if fresh {
			r.hold(s)
		}
		return s
	}
	s := []partition.Slot{intern(id1), intern(id2), intern(id3)}
	if s[0] == s[1] || s[0] == s[2] || s[1] == s[2] {
		t.Fatalf("slots %v: distinct IDs share a slot", s)
	}
	if intern(id1) != s[0] || intern(id2) != s[1] || intern(id3) != s[2] {
		t.Fatal("a chained ID did not resolve to its own slot again")
	}
	// Freeing the head of the chain must keep the rest reachable.
	r.drop(s[0])
	if r.live != 2 || intern(id2) != s[1] || intern(id3) != s[2] {
		t.Fatalf("live %d after freeing the chain's head; the rest must resolve", r.live)
	}
	r.drop(s[1])
	r.drop(s[2])
	if r.live != 0 {
		t.Fatalf("%d resolutions left after dropping everything", r.live)
	}
	if again := intern(id1); intern(id1) != again || r.live != 1 {
		t.Fatal("a dropped transaction could not be resolved again")
	}
}

// TestMemoNamesOneResolverAndIncarnation: a transaction's memo is read only
// by the resolver that set it and only while its resolution lives; another
// resolver, or the same one after the slot was recycled for another
// transaction, resolves the transaction by its content.
func TestMemoNamesOneResolverAndIncarnation(t *testing.T) {
	cfg := Config{N: 4, Mode: OrthrusMode()}
	r1, r2 := NewResolver(cfg), NewResolver(cfg)
	pay := types.NewPayment("alice", "bob", 1, 1)
	s1 := r1.resolve(pay)
	r1.hold(s1)
	if r1.resolve(pay) != s1 {
		t.Fatal("the memo's own resolver did not find the resolution again")
	}
	copied := *pay // a leader's block copy carries the memo
	if r1.resolve(&copied) != s1 {
		t.Fatal("a struct copy did not reach the same resolution")
	}
	if s := r2.resolve(pay); r2.Cap() != 1 || r2.at(s).id != pay.ID() {
		t.Fatal("another resolver did not resolve the transaction itself")
	}
	if r1.resolve(pay) != s1 {
		t.Fatal("a memo of another resolver hid the content index")
	}
	if clone := pay.Clone(); clone.Memo() != (types.Memo{}) {
		t.Fatal("Clone kept the memo")
	}

	// Recycle s1 for another transaction: the stale memo must not reach it.
	stale := *pay
	r1.drop(s1)
	if s2 := r1.resolve(types.NewPayment("carol", "dave", 2, 2)); s2 != s1 {
		t.Fatalf("slot %d was not recycled (got %d)", s1, s2)
	}
	if s := r1.resolve(&stale); s == s1 || r1.at(s).id != pay.ID() {
		t.Fatal("a memo of a recycled incarnation reached another transaction's resolution")
	}
}
