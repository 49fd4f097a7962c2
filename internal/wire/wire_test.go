package wire

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/pbft"
	"repro/internal/types"
)

// sampleTx builds a transaction exercising every field, including a
// negative-capable condition and an opaque payload.
func sampleTx(nonce uint64) types.Transaction {
	return types.Transaction{
		Ops: []types.Op{
			{Key: "alice", Type: types.Owned, Kind: types.OpDecrement, Amount: 30, Con: 0},
			{Key: "bob", Type: types.Owned, Kind: types.OpIncrement, Amount: 30},
			{Key: "counter", Type: types.Shared, Kind: types.OpAssign, Amount: 7, Con: -1},
		},
		Client:   "alice",
		Nonce:    nonce,
		Sig:      []byte{1, 2, 3},
		Payload:  bytes.Repeat([]byte{0xAB}, 16),
		SubmitNS: 12345,
	}
}

func sampleBlock() *types.Block {
	return &types.Block{
		Instance:  2,
		SN:        7,
		Rank:      9,
		State:     types.StateVector{1, 0, 4, 2},
		Txs:       []types.Transaction{sampleTx(1), sampleTx(2)},
		Refs:      []types.BlockRef{{Instance: 0, SN: 3}, {Instance: 3, SN: 1}},
		Proposer:  2,
		Sig:       []byte{9, 9},
		ProposeNS: 777,
	}
}

// messages enumerates one instance of every encodable message type, each
// exercising populated and empty collection fields.
func messages() []any {
	tx := sampleTx(3)
	return []any{
		&pbft.PrePrepare{Instance: 1, View: 2, Seq: 3, Block: sampleBlock()},
		&pbft.PrePrepare{Instance: 0, View: 0, Seq: 0, Block: &types.Block{Instance: 0, SN: 0}},
		&pbft.Prepare{Instance: 1, View: 2, Seq: 3, Digest: types.BlockID{1, 2}, Replica: 4},
		&pbft.Commit{Instance: 1, View: 2, Seq: 3, Digest: types.BlockID{5}, Replica: 0},
		&pbft.ViewChange{Instance: 2, NewView: 5, Replica: 1, Delivered: 11,
			Prepared: []pbft.PreparedEntry{{Seq: 11, View: 4, Block: sampleBlock()}}},
		&pbft.ViewChange{Instance: 0, NewView: 1, Replica: 3, Delivered: 0},
		&pbft.NewView{Instance: 2, View: 5,
			Reproposals: []*pbft.PrePrepare{{Instance: 2, View: 5, Seq: 11, Block: sampleBlock()}}},
		&pbft.NewView{Instance: 1, View: 9},
		&core.CheckpointMsg{Epoch: 3, Digest: [32]byte{7, 7, 7}, Replica: 2},
		&core.SubmitMsg{Tx: &tx},
		&core.StateTransferReq{Replica: 1, State: types.StateVector{4, 0, 9, 2}},
		&core.StateTransferReq{Replica: 0},
		&core.StateTransferResp{Replica: 2,
			Cert: core.CheckpointCert{Stable: 2, Digest: [32]byte{1, 2}, Bound: [][32]byte{{3}, {4}, {5}, {6}}},
			Runs: []core.BlockRun{
				{Instance: 1, Blocks: []*types.Block{sampleBlock()}},
				{Instance: 3, Blocks: []*types.Block{{Instance: 3, SN: 12}, {Instance: 3, SN: 13}}},
			}},
		&core.StateTransferResp{Replica: 3},
	}
}

// TestRoundTrip pins decode(encode(m)) == m for every message type. The
// comparison re-encodes the decoded message (the codec is canonical, so
// equal values encode to equal bytes) and additionally checks semantic
// equality through content digests where the types define them.
func TestRoundTrip(t *testing.T) {
	for _, msg := range messages() {
		enc, err := Encode(msg)
		if err != nil {
			t.Fatalf("Encode(%T): %v", msg, err)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(%T): %v", msg, err)
		}
		if reflect.TypeOf(dec) != reflect.TypeOf(msg) {
			t.Fatalf("Decode(%T) returned %T", msg, dec)
		}
		re, err := Encode(dec)
		if err != nil {
			t.Fatalf("re-Encode(%T): %v", msg, err)
		}
		if !bytes.Equal(enc, re) {
			t.Fatalf("%T: encode(decode(enc)) != enc\n  enc: %x\n  re:  %x", msg, enc, re)
		}
	}
}

// TestRoundTripDigests pins that content digests survive the wire: a block
// decoded on another replica must hash identically or consensus breaks.
func TestRoundTripDigests(t *testing.T) {
	b := sampleBlock()
	enc, err := Encode(&pbft.PrePrepare{Instance: b.Instance, Block: b})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	got := dec.(*pbft.PrePrepare).Block
	if got.Digest() != b.Digest() {
		t.Fatalf("block digest changed across the wire: %v != %v", got.Digest(), b.Digest())
	}
	for i := range b.Txs {
		if got.Txs[i].ID() != b.Txs[i].ID() {
			t.Fatalf("tx %d ID changed across the wire", i)
		}
	}
}

// TestDecodeMalformed pins error (not panic) on empty input, unknown tags,
// truncations at every prefix length, and trailing garbage.
func TestDecodeMalformed(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("Decode(nil) succeeded")
	}
	if _, err := Decode([]byte{0xFF}); err == nil {
		t.Fatal("Decode(unknown tag) succeeded")
	}
	for _, msg := range messages() {
		enc, err := Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 1; cut < len(enc); cut++ {
			if _, err := Decode(enc[:cut]); err == nil {
				t.Fatalf("%T: Decode of %d/%d-byte prefix succeeded", msg, cut, len(enc))
			}
		}
		if _, err := Decode(append(append([]byte{}, enc...), 0)); err == nil {
			t.Fatalf("%T: Decode with trailing byte succeeded", msg)
		}
	}
}

// TestEncodeUnknownType pins the loud-failure contract for types outside
// the replica message set.
func TestEncodeUnknownType(t *testing.T) {
	if _, err := Encode(struct{ X int }{}); err == nil {
		t.Fatal("Encode(unknown type) succeeded")
	}
	if _, err := Encode(nil); err == nil {
		t.Fatal("Encode(nil) succeeded")
	}
}

// TestHugeCountRejected pins the allocation bound: a header claiming more
// collection elements than bytes remain must be rejected before any
// allocation is attempted.
func TestHugeCountRejected(t *testing.T) {
	// tagViewChange, instance=0, view=0, replica=0, delivered=0, then a
	// Prepared count of 2^40 with no bytes behind it.
	buf := []byte{tagViewChange, 0, 0, 0, 0}
	buf = appendUint(buf, 1<<40)
	if _, err := Decode(buf); err == nil {
		t.Fatal("Decode with absurd collection count succeeded")
	}
}

// TestModeledSize pins what the simulated network charges each message, as
// literals: every committed figure was computed with these numbers, so a
// change here is a change to every figure.
func TestModeledSize(t *testing.T) {
	block := func(txs int) *types.Block {
		b := &types.Block{}
		for i := 0; i < txs; i++ {
			b.Txs = append(b.Txs, sampleTx(uint64(i)))
		}
		return b
	}
	pp := func(txs int) *pbft.PrePrepare { return &pbft.PrePrepare{Block: block(txs)} }
	bound := make([][32]byte, 4)
	cases := []struct {
		name   string
		msg    any
		txSize int
		want   int
	}{
		{"empty pre-prepare", pp(0), 500, 160},
		{"pre-prepare, 1 tx", pp(1), 500, 660},
		{"pre-prepare, 100 txs", pp(100), 500, 50160},
		{"prepare", &pbft.Prepare{Replica: 3}, 500, 96},
		{"commit", &pbft.Commit{Replica: 3}, 500, 96},
		{"view change with two prepared blocks", &pbft.ViewChange{Prepared: []pbft.PreparedEntry{
			{Seq: 1, Block: block(2)}, {Seq: 2, Block: block(0)}}}, 500, 1416},
		{"view change, nothing prepared", &pbft.ViewChange{}, 500, 96},
		{"new view with two re-proposals", &pbft.NewView{Reproposals: []*pbft.PrePrepare{pp(1), pp(3)}}, 500, 2416},
		{"checkpoint", &core.CheckpointMsg{Epoch: 9, Replica: 1}, 500, 128},
		{"state-transfer request, M = 4", &core.StateTransferReq{State: make(types.StateVector, 4)}, 500, 64},
		{"state-transfer response, no cert", &core.StateTransferResp{Runs: []core.BlockRun{
			{Instance: 0, Blocks: []*types.Block{block(1), block(0)}},
			{Instance: 2, Blocks: []*types.Block{block(2)}}}}, 500, 1852},
		{"state-transfer response, cert only", &core.StateTransferResp{Cert: core.CheckpointCert{Stable: 3, Bound: bound}}, 500, 224},
		{"state-transfer response, cert and a run", &core.StateTransferResp{Cert: core.CheckpointCert{Stable: 3, Bound: bound},
			Runs: []core.BlockRun{{Blocks: []*types.Block{block(1)}}}}, 500, 820},
		{"pre-prepare, 10 txs of 250 B", pp(10), 250, 2660},
		{"state-transfer response, 2 txs of 250 B", &core.StateTransferResp{Runs: []core.BlockRun{
			{Blocks: []*types.Block{block(2)}}}}, 250, 660},
	}
	for _, c := range cases {
		if got := ModeledSize(c.msg, c.txSize); got != c.want {
			t.Errorf("%s: ModeledSize = %d, want %d", c.name, got, c.want)
		}
	}
	if got := BlockSize(3, 500); got != ModeledSize(pp(3), 500) {
		t.Errorf("BlockSize(3, 500) = %d, want the pre-prepare's %d", got, ModeledSize(pp(3), 500))
	}
}
