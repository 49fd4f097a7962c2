package partition

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

// oracleBucket is the map-based Bucket the table replaced, kept verbatim as
// the reference: three maps keyed by txKey, a plain slice queue, removal by
// memmove.
type oracleBucket struct {
	queue     []*types.Transaction
	present   map[uint64]bool
	confirmed map[uint64]bool
	clock     uint64
	arrivedAt map[uint64]uint64
}

func newOracleBucket() *oracleBucket {
	return &oracleBucket{
		present:   make(map[uint64]bool),
		confirmed: make(map[uint64]bool),
		arrivedAt: make(map[uint64]uint64),
	}
}

func oracleKey(tx *types.Transaction) uint64 {
	if tx.Idx != 0 {
		return tx.Idx
	}
	id := tx.ID()
	return binary.BigEndian.Uint64(id[:8]) | 1<<63
}

func (b *oracleBucket) Tick() { b.clock++ }

func (b *oracleBucket) Oldest() (tx *types.Transaction, age uint64, ok bool) {
	if len(b.queue) == 0 {
		return nil, 0, false
	}
	tx = b.queue[0]
	return tx, b.clock - b.arrivedAt[oracleKey(tx)], true
}

func (b *oracleBucket) Len() int { return len(b.queue) }

func (b *oracleBucket) Push(tx *types.Transaction) bool {
	k := oracleKey(tx)
	if b.present[k] || b.confirmed[k] {
		return false
	}
	b.present[k] = true
	b.queue = append(b.queue, tx)
	if _, seen := b.arrivedAt[k]; !seen {
		b.arrivedAt[k] = b.clock
	}
	return true
}

func (b *oracleBucket) Pull(max int) []*types.Transaction {
	if max > len(b.queue) {
		max = len(b.queue)
	}
	out := b.queue[:max:max]
	b.queue = b.queue[max:]
	for _, tx := range out {
		delete(b.present, oracleKey(tx))
	}
	return out
}

func (b *oracleBucket) Peek(max int) []*types.Transaction {
	if max > len(b.queue) {
		max = len(b.queue)
	}
	return b.queue[:max:max]
}

func (b *oracleBucket) MarkConfirmed(tx *types.Transaction) {
	k := oracleKey(tx)
	b.confirmed[k] = true
	delete(b.arrivedAt, k)
	if !b.present[k] {
		return
	}
	delete(b.present, k)
	for i, q := range b.queue {
		if oracleKey(q) == k {
			b.queue = append(b.queue[:i], b.queue[i+1:]...)
			break
		}
	}
}

func (b *oracleBucket) GC() {
	clear(b.confirmed)
	for k := range b.arrivedAt {
		if !b.present[k] {
			delete(b.arrivedAt, k)
		}
	}
}

// driveBuckets runs steps random operations over a small pool of stamped
// and unstamped transactions through both buckets of one Set and their
// oracles, and reports the first divergence in return values, queue order
// or ages.
func driveBuckets(t *testing.T, seed int64, steps int) bool {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]*types.Transaction, 24)
	for i := range pool {
		pool[i] = types.NewPayment("alice", "bob", 1, uint64(i))
		if i%2 == 0 {
			pool[i].Idx = uint64(1000 + i) // stamped: keyed by Idx, never hashed
		}
	}
	set := NewSet(2)
	oracles := []*oracleBucket{newOracleBucket(), newOracleBucket()}
	sameTxs := func(op string, got, want []*types.Transaction) bool {
		if len(got) != len(want) {
			t.Errorf("seed %d: %s returned %d transactions, oracle %d", seed, op, len(got), len(want))
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("seed %d: %s position %d differs from the oracle", seed, op, i)
				return false
			}
		}
		return true
	}
	for step := 0; step < steps; step++ {
		k := rng.Intn(2)
		b, o := set.Bucket(k), oracles[k]
		tx := pool[rng.Intn(len(pool))]
		switch op := rng.Intn(12); {
		case op < 4:
			if got, want := b.Push(tx), o.Push(tx); got != want {
				t.Errorf("seed %d step %d: Push = %v, oracle %v", seed, step, got, want)
				return false
			}
		case op < 6:
			n := rng.Intn(5)
			pulled, want := b.Pull(n), o.Pull(n)
			if !sameTxs("Pull", pulled, want) {
				return false
			}
			for _, p := range pulled { // the leader re-queues some of what it pulled
				if rng.Intn(3) == 0 {
					if got, want := b.Push(p), o.Push(p); got != want {
						t.Errorf("seed %d step %d: re-Push = %v, oracle %v", seed, step, got, want)
						return false
					}
				}
			}
		case op < 9:
			b.MarkConfirmed(tx)
			o.MarkConfirmed(tx)
		case op < 11:
			b.Tick()
			o.Tick()
		default:
			set.GC()
			oracles[0].GC()
			oracles[1].GC()
		}
		if b.Len() != o.Len() {
			t.Errorf("seed %d step %d: Len = %d, oracle %d", seed, step, b.Len(), o.Len())
			return false
		}
		e, age, ok := b.Oldest()
		otx, oage, ook := o.Oldest()
		if ok != ook || e.Tx != otx || age != oage {
			t.Errorf("seed %d step %d: Oldest = (%v, %d, %v), oracle (%v, %d, %v)", seed, step, e.Tx, age, ok, otx, oage, ook)
			return false
		}
		if n := rng.Intn(6); !sameTxs("Peek", b.Peek(n), o.Peek(n)) {
			return false
		}
	}
	// Drain: the full queue order must match, and once everything is
	// confirmed and collected the table holds nothing.
	for k, o := range oracles {
		if !sameTxs("final Pull", set.Bucket(k).Pull(len(pool)), o.Pull(len(pool))) {
			return false
		}
	}
	for _, tx := range pool {
		set.MarkConfirmed(tx)
	}
	set.GC()
	if live := set.Table().Live(); live != 0 {
		t.Errorf("seed %d: %d table records survive confirming and collecting everything", seed, live)
		return false
	}
	return true
}

func TestBucketMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		if !driveBuckets(t, seed, 2000) {
			return
		}
	}
	if err := quick.Check(func(seed int64) bool { return driveBuckets(t, seed, 300) },
		&quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestConfirmMidQueueKeepsOrderAndAge pins the tombstone: confirming a
// transaction in the middle of an f-successor's queue leaves the others in
// arrival order, and an infeasible transaction the leader re-queues keeps
// the age of its first arrival.
func TestConfirmMidQueueKeepsOrderAndAge(t *testing.T) {
	b := NewBucket()
	txs := make([]*types.Transaction, 6)
	for i := range txs {
		txs[i] = types.NewPayment("alice", "bob", 1, uint64(i))
		b.Push(txs[i])
		b.Tick() // txs[i] arrives at clock i
	}
	backing := &b.queue[0]
	b.MarkConfirmed(txs[2])
	b.MarkConfirmed(txs[0])
	if &b.queue[0] != backing || len(b.queue) != len(txs) {
		t.Fatal("MarkConfirmed moved the queue instead of leaving a tombstone")
	}
	if e, age, ok := b.Oldest(); !ok || e.Tx != txs[1] || age != 5 {
		t.Fatalf("Oldest = (%v, %d, %v), want txs[1] aged 5 behind the head tombstone", e.Tx, age, ok)
	}
	got := b.Pull(2)
	if len(got) != 2 || got[0] != txs[1] || got[1] != txs[3] {
		t.Fatal("Pull did not skip the tombstones in arrival order")
	}
	b.Push(got[0]) // infeasible: back to the tail
	b.Tick()
	for _, want := range []*types.Transaction{txs[4], txs[5]} {
		if got := b.Pull(1); len(got) != 1 || got[0] != want {
			t.Fatal("queue order broken after the re-queue")
		}
	}
	if e, age, ok := b.Oldest(); !ok || e.Tx != txs[1] || age != 6 {
		t.Fatalf("re-queued Oldest = (%v, %d, %v), want txs[1] with its original age 6", e.Tx, age, ok)
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1", b.Len())
	}
}

// TestSharedPrefixStaysTwoTransactions is the identity bugfix: two IDs that
// share their leading eight bytes (the pair a client could grind for, and
// all the truncated-digest key looked at) hash to one index cell and must
// still be interned, queued and confirmed independently, as must a third
// record behind them in the same probe chain.
func TestSharedPrefixStaysTwoTransactions(t *testing.T) {
	set := NewSet(1)
	tbl, b := set.Table(), set.Bucket(0)
	id1 := types.NewPayment("alice", "bob", 1, 1).ID()
	id2 := id1
	id2[31] ^= 1 // same prefix, different transaction
	id3 := id1
	id3[8] ^= 1
	if hash(&id1) != hash(&id2) || hash(&id1) != hash(&id3) {
		t.Fatal("the constructed IDs do not collide")
	}
	txs := []*types.Transaction{
		types.NewPayment("alice", "bob", 1, 1),
		types.NewPayment("alice", "bob", 1, 2),
		types.NewPayment("alice", "bob", 1, 3),
	}
	s := []Slot{tbl.intern(id1), tbl.intern(id2), tbl.intern(id3)}
	if s[0] == s[1] || s[0] == s[2] || s[1] == s[2] {
		t.Fatalf("slots %v: distinct IDs share a slot", s)
	}
	if tbl.intern(id2) != s[1] || tbl.intern(id3) != s[2] {
		t.Fatal("a chained ID did not resolve to its own slot again")
	}
	for i, tx := range txs {
		if !b.PushSlot(tx, s[i]) {
			t.Fatal("a transaction sharing a prefix with a queued one was dropped as a duplicate")
		}
	}
	if b.PushSlot(txs[0], s[0]) {
		t.Fatal("a true duplicate was queued twice")
	}
	b.MarkConfirmedSlot(s[0])
	if b.Len() != 2 || b.PushSlot(txs[0], s[0]) {
		t.Fatal("confirming one transaction must drop exactly it")
	}
	// Freeing the head of the chain must keep the rest reachable.
	b.GC()
	if tbl.Live() != 2 || tbl.intern(id2) != s[1] || tbl.intern(id3) != s[2] {
		t.Fatalf("live %d after freeing the chain's head; the rest must resolve", tbl.Live())
	}
	if got := b.Pull(3); len(got) != 2 || got[0] != txs[1] || got[1] != txs[2] {
		t.Fatal("the other transactions of the chain did not stay queued in order")
	}
	b.MarkConfirmedSlot(s[1])
	b.MarkConfirmedSlot(s[2])
	b.GC()
	if tbl.Live() != 0 {
		t.Fatalf("%d records left after collecting everything", tbl.Live())
	}
	if again := tbl.intern(id1); !b.PushSlot(txs[0], again) || tbl.intern(id1) != again {
		t.Fatal("a freed transaction could not be interned again")
	}
}

// TestTableRecyclesSlots pins the bound: interning and collecting wave
// after wave of transactions reuses the same slots.
func TestTableRecyclesSlots(t *testing.T) {
	set := NewSet(4)
	var capAfterFirst int
	for wave := 0; wave < 50; wave++ {
		var txs []*types.Transaction
		for i := 0; i < 300; i++ {
			tx := types.NewPayment(types.Key(rune('a'+i%26)), "bob", 1, uint64(wave*1000+i))
			if i%3 == 0 {
				tx.Idx = uint64(wave*1000 + i + 1)
			}
			if _, err := set.Add(tx); err != nil {
				t.Fatal(err)
			}
			txs = append(txs, tx)
		}
		for _, tx := range txs {
			set.MarkConfirmed(tx)
		}
		set.GC()
		if set.Table().Live() != 0 || set.Pending() != 0 {
			t.Fatalf("wave %d: live %d pending %d after GC", wave, set.Table().Live(), set.Pending())
		}
		if wave == 0 {
			capAfterFirst = set.Table().Cap()
		}
	}
	if got := set.Table().Cap(); got != capAfterFirst {
		t.Fatalf("table grew from %d to %d slots over identical waves", capAfterFirst, got)
	}
}
