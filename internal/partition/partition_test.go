package partition

import (
	"fmt"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/types"
)

func TestAssignStableAndInRange(t *testing.T) {
	for m := 1; m <= 16; m *= 2 {
		for i := 0; i < 100; i++ {
			k := types.Key(fmt.Sprintf("acct-%d", i))
			b := Assign(k, m)
			if b < 0 || b >= m {
				t.Fatalf("Assign(%q,%d) = %d out of range", k, m, b)
			}
			if b != Assign(k, m) {
				t.Fatal("Assign unstable")
			}
		}
	}
}

func TestAssignSpreadsLoad(t *testing.T) {
	m := 8
	counts := make([]int, m)
	for i := 0; i < 8000; i++ {
		counts[Assign(types.Key(fmt.Sprintf("acct-%d", i)), m)]++
	}
	for b, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("bucket %d holds %d of 8000 keys (poor spread)", b, c)
		}
	}
}

// assignOf is Route's bucket callback without a memo: op i's key, or the
// client's for -1, through Assign.
func assignOf(tx *types.Transaction, m int) func(int) int32 {
	return func(i int) int32 {
		if i < 0 {
			return int32(Assign(tx.Client, m))
		}
		return int32(Assign(tx.Ops[i].Key, m))
	}
}

func TestRoutePayment(t *testing.T) {
	m := 4
	tx := types.NewPayment("alice", "bob", 5, 1)
	got := Route(nil, tx, assignOf(tx, m))
	if len(got) != 1 || got[0] != int32(Assign("alice", m)) {
		t.Fatalf("Route = %v, want payer bucket only", got)
	}
}

func TestRouteMultiPayerSortedDistinct(t *testing.T) {
	f := func(seed uint32) bool {
		m := 4
		a := types.Key(fmt.Sprintf("p1-%d", seed))
		b := types.Key(fmt.Sprintf("p2-%d", seed))
		tx := types.NewMultiPayment("c", []types.Transfer{
			{From: a, To: "x", Amount: 1},
			{From: b, To: "x", Amount: 1},
		}, 1)
		got := Route(nil, tx, assignOf(tx, m))
		if len(got) == 0 || len(got) > 2 {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketPushPullFIFO(t *testing.T) {
	b := NewBucket()
	var txs []*types.Transaction
	for i := 0; i < 5; i++ {
		tx := types.NewPayment("alice", "bob", 1, uint64(i))
		txs = append(txs, tx)
		if !b.Push(tx) {
			t.Fatalf("push %d failed", i)
		}
	}
	if b.Len() != 5 {
		t.Fatalf("len = %d", b.Len())
	}
	got := b.Pull(3)
	if len(got) != 3 {
		t.Fatalf("pulled %d", len(got))
	}
	for i, tx := range got {
		if tx.ID() != txs[i].ID() {
			t.Fatal("not FIFO")
		}
	}
	if b.Len() != 2 {
		t.Fatalf("len after pull = %d", b.Len())
	}
	rest := b.Pull(100)
	if len(rest) != 2 {
		t.Fatalf("rest = %d", len(rest))
	}
}

func TestBucketDeduplication(t *testing.T) {
	b := NewBucket()
	tx := types.NewPayment("alice", "bob", 1, 7)
	if !b.Push(tx) {
		t.Fatal("first push failed")
	}
	if b.Push(tx) {
		t.Fatal("duplicate push accepted")
	}
	// After pulling, a re-push is allowed (not yet confirmed).
	b.Pull(1)
	if !b.Push(tx) {
		t.Fatal("re-push after pull rejected")
	}
}

func TestBucketConfirmedNotReadded(t *testing.T) {
	b := NewBucket()
	tx := types.NewPayment("alice", "bob", 1, 7)
	b.Push(tx)
	b.MarkConfirmed(tx)
	if b.Len() != 0 {
		t.Fatal("confirmed tx still queued")
	}
	if b.Push(tx) {
		t.Fatal("confirmed tx re-added")
	}
	b.GC()
	if !b.Push(tx) {
		t.Fatal("push after GC rejected")
	}
}

func TestBucketPeekDoesNotRemove(t *testing.T) {
	b := NewBucket()
	tx := types.NewPayment("alice", "bob", 1, 1)
	b.Push(tx)
	if got := b.Peek(5); len(got) != 1 {
		t.Fatalf("peek = %d", len(got))
	}
	if b.Len() != 1 {
		t.Fatal("peek removed element")
	}
}

// TestBucketPeekSkipsTombstones confirms a transaction mid-queue and one at
// the head: Peek returns the survivors in arrival order, honours max, and
// leaves the queue as it was.
func TestBucketPeekSkipsTombstones(t *testing.T) {
	b := NewBucket()
	txs := make([]*types.Transaction, 5)
	for i := range txs {
		txs[i] = types.NewPayment("alice", "bob", 1, uint64(i+1))
		b.Push(txs[i])
	}
	b.MarkConfirmed(txs[2])
	b.MarkConfirmed(txs[0])
	got := b.Peek(5)
	if len(got) != 3 || got[0] != txs[1] || got[1] != txs[3] || got[2] != txs[4] {
		t.Fatalf("peek = %v, want txs 1, 3, 4", got)
	}
	if got := b.Peek(2); len(got) != 2 || got[0] != txs[1] || got[1] != txs[3] {
		t.Fatalf("peek(2) = %v, want txs 1, 3", got)
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d after peeking, want 3", b.Len())
	}
	if got := b.Pull(5); len(got) != 3 || got[0] != txs[1] {
		t.Fatal("peek disturbed the queue")
	}
	if got := b.Peek(5); len(got) != 0 {
		t.Fatalf("peek on an empty queue = %d", len(got))
	}
}

func TestSetAddRouting(t *testing.T) {
	s := NewSet(4)
	tx := types.NewPayment("alice", "bob", 5, 1)
	idx, err := s.Add(tx)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 1 || idx[0] != Assign("alice", 4) {
		t.Fatalf("idx = %v", idx)
	}
	if s.Bucket(idx[0]).Len() != 1 || s.Pending() != 1 {
		t.Fatal("tx not queued")
	}
}

func TestSetAddMultiPayerGoesToAllBuckets(t *testing.T) {
	m := 4
	s := NewSet(m)
	// Find two payers landing in different buckets.
	var p1, p2 types.Key
	for i := 0; ; i++ {
		p1 = types.Key(fmt.Sprintf("u%d", i))
		p2 = types.Key(fmt.Sprintf("v%d", i))
		if Assign(p1, m) != Assign(p2, m) {
			break
		}
	}
	tx := types.NewMultiPayment("c", []types.Transfer{
		{From: p1, To: "x", Amount: 1},
		{From: p2, To: "x", Amount: 1},
	}, 1)
	idx, err := s.Add(tx)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 {
		t.Fatalf("idx = %v", idx)
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want one copy per bucket", s.Pending())
	}
	s.MarkConfirmed(tx)
	if s.Pending() != 0 {
		t.Fatal("MarkConfirmed left copies behind")
	}
}

func TestSetAddInvalidTx(t *testing.T) {
	s := NewSet(2)
	if _, err := s.Add(&types.Transaction{Client: "x"}); err == nil {
		t.Fatal("invalid tx accepted")
	}
}

func TestSetAddNoPayerFallsBackToClientBucket(t *testing.T) {
	s := NewSet(4)
	// A mint-like tx: only increments.
	tx := &types.Transaction{Client: "faucet", Ops: []types.Op{
		{Key: "alice", Type: types.Owned, Kind: types.OpIncrement, Amount: 5},
	}}
	idx, err := s.Add(tx)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 1 || idx[0] != Assign("faucet", 4) {
		t.Fatalf("idx = %v, want client bucket", idx)
	}
}

// TestRecordSize: a replica holds one table record per transaction until
// checkpoint GC, so its size is resident bytes per transaction per replica;
// it holds no pointer, so the garbage collector never scans the records.
func TestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(rec{}); got > 16 {
		t.Fatalf("a table record is %d bytes, want at most 16", got)
	}
}
