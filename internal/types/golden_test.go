package types

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"
)

// streamedID is the streaming construction ID() used before the preimage
// moved to a stack buffer: the reference the one-shot hash must equal.
func streamedID(tx *Transaction) (id TxID) {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	str(string(tx.Client))
	put(tx.Nonce)
	put(uint64(len(tx.Ops)))
	for _, op := range tx.Ops {
		str(string(op.Key))
		h.Write([]byte{byte(op.Type), byte(op.Kind)})
		put(uint64(op.Amount))
		put(uint64(op.Con))
	}
	copy(id[:], h.Sum(nil))
	return id
}

// TestIDAndDigestGoldens pins transaction IDs and block digests byte for
// byte: they are consensus-visible (committed digests, checkpoint folds,
// cross-validation against the simulator), so a faster hash construction
// must not move them. The hex values come from the streaming construction.
func TestIDAndDigestGoldens(t *testing.T) {
	long := Key(strings.Repeat("k", 500)) // outgrows ID's stack buffer
	pay := NewPayment("alice", "bob", 7, 42)
	two := NewMultiPayment("alice", []Transfer{
		{From: "alice", To: "carol", Amount: 3}, {From: "bob", To: "carol", Amount: 4}}, 9)
	con := NewContractCall("alice", []Key{"alice"}, 1,
		[]Op{NewSharedAssign("rec1", 5), NewSharedAssign("rec2", 6)}, 11)
	big := NewPayment(long, "bob", 1, 1)
	for i, c := range []struct {
		tx   *Transaction
		want string
	}{
		{pay, "f06de6a672935b85f30e3fa61439166747fad9b5e97ea4a1fa7a7831d2befbcf"},
		{two, "e9f909bbfc4ab76af202ce8f2ad4ba4314988017dcb9f8951debb81dffdc2ed2"},
		{con, "a8874e678a577a458f161169b16768c2f598257b72b56f4451141458c61e8b9f"},
		{big, "5e78f6995c5bf1cbe1ef1b6039b1fb6d627b7ad34ea023e9ced93b1a79f1e118"},
	} {
		id := c.tx.ID()
		if got := hex.EncodeToString(id[:]); got != c.want {
			t.Errorf("transaction %d: ID %s, want %s", i, got, c.want)
		}
		if id != streamedID(c.tx) {
			t.Errorf("transaction %d: ID differs from the streaming construction", i)
		}
	}

	empty := &Block{Instance: 2, SN: 5, Rank: 6} // a no-op filler
	full := &Block{Instance: 1, SN: 3, Rank: 4, State: StateVector{1, 2, 3, 4},
		Txs: []Transaction{*pay, *two, *con, *big}, Refs: []BlockRef{{Instance: 0, SN: 2}}}
	huge := &Block{Instance: 3, SN: 1, Rank: 2, State: StateVector{9}} // outgrows Digest's stack buffer
	for i := 0; i < 300; i++ {
		huge.Txs = append(huge.Txs, *NewPayment("alice", "bob", Amount(i), uint64(i)))
	}
	for i, c := range []struct {
		b    *Block
		want string
	}{
		{empty, "3647081da018a020d1adb7db4f09c53a3e9e2fa9af289ed8ad6ba04404c9b0f7"},
		{full, "b9fe544ebb570b3ca0435e9f372f8c20ebcae7c08e8f628aa7313c3deac081b1"},
		{huge, "d2e802c48da2b7a665557f9cc5fa1912f20f81c5815eb1389dbd57e12d3168a0"},
	} {
		d := c.b.Digest()
		if got := hex.EncodeToString(d[:]); got != c.want {
			t.Errorf("block %d: digest %s, want %s", i, got, c.want)
		}
	}
}

// TestIDAllocatesNothing keeps the preimage on the stack for ordinary
// transactions.
func TestIDAllocatesNothing(t *testing.T) {
	tx := NewMultiPayment("alice", []Transfer{
		{From: "alice", To: "carol", Amount: 3}, {From: "bob", To: "carol", Amount: 4}}, 9)
	if n := testing.AllocsPerRun(100, func() {
		tx.hashed = false
		tx.ID()
	}); n != 0 {
		t.Fatalf("ID allocated %v times per call", n)
	}
}

// TestDigestStringAllocatesOnce pins the short hex form observers get per
// confirmation: the first eight bytes, and the string is the one object.
func TestDigestStringAllocatesOnce(t *testing.T) {
	id := NewPayment("alice", "bob", 10, 1).ID()
	if got, want := id.String(), hex.EncodeToString(id[:8]); got != want || BlockID(id).String() != want {
		t.Fatalf("String() = %q and %q, want %q", got, BlockID(id).String(), want)
	}
	if n := testing.AllocsPerRun(100, func() { stringSink = id.String() }); n != 1 {
		t.Fatalf("String allocated %v times per call, want 1", n)
	}
}

// stringSink keeps a measured String result from staying on the stack.
var stringSink string
