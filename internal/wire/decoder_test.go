package wire

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/pbft"
	"repro/internal/types"
)

// mustEncode is Encode for messages the tests built themselves.
func mustEncode(t testing.TB, msg any) []byte {
	t.Helper()
	enc, err := Encode(msg)
	if err != nil {
		t.Fatalf("Encode(%T): %v", msg, err)
	}
	return enc
}

// TestDecoderMatchesOneShot pins that a long-lived Decoder is the same
// codec: every message kind, decoded again and again through one Decoder
// whose chunks carry over from message to message, equals its one-shot
// decode and re-encodes to the original bytes.
func TestDecoderMatchesOneShot(t *testing.T) {
	var d Decoder
	for round := 0; round < 3; round++ {
		for _, msg := range messages() {
			enc := mustEncode(t, msg)
			want, err := Decode(enc)
			if err != nil {
				t.Fatalf("Decode(%T): %v", msg, err)
			}
			got, err := d.Decode(enc)
			if err != nil {
				t.Fatalf("round %d: Decoder.Decode(%T): %v", round, msg, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: %T through a long-lived Decoder differs from its one-shot decode\n  got:  %+v\n  want: %+v", round, msg, got, want)
			}
			if re := mustEncode(t, got); !bytes.Equal(re, enc) {
				t.Fatalf("round %d: %T re-encodes differently after a long-lived decode", round, msg)
			}
		}
	}
	// A malformed message leaves the Decoder usable.
	if _, err := d.Decode([]byte{tagSubmit, 1, 9}); err == nil {
		t.Fatal("truncated submission decoded")
	}
	vote := mustEncode(t, &pbft.Commit{Instance: 1, Seq: 2, Replica: 3})
	if got, err := d.Decode(vote); err != nil || *got.(*pbft.Commit) != (pbft.Commit{Instance: 1, Seq: 2, Replica: 3}) {
		t.Fatalf("decode after a malformed message: %+v, %v", got, err)
	}
}

// carved lists every slice of msg that the Decoder carved from a chunk.
func carved(msg any) (ops [][]types.Op, blobs [][]byte) {
	tx := func(tx *types.Transaction) {
		ops = append(ops, tx.Ops)
		blobs = append(blobs, tx.Sig, tx.Payload)
	}
	switch m := msg.(type) {
	case *core.SubmitMsg:
		tx(m.Tx)
	case *pbft.PrePrepare:
		blobs = append(blobs, m.Block.Sig)
		for i := range m.Block.Txs {
			tx(&m.Block.Txs[i])
		}
	}
	return ops, blobs
}

// TestDecoderCarvesAreExclusive pins the capacity clip across messages, not
// only within one: appending to any Ops, Sig or Payload carved from a chunk
// — and writing through the appended slice — reaches neither a sibling
// carved before it nor one carved after it from the same chunk.
func TestDecoderCarvesAreExclusive(t *testing.T) {
	stx := sampleTx(9)
	inputs := [][]byte{
		mustEncode(t, &pbft.PrePrepare{Instance: 1, Seq: 3, Block: sampleBlock()}),
		mustEncode(t, &core.SubmitMsg{Tx: &stx}),
	}
	var d Decoder
	var kept []any
	var want [][]byte
	for round := 0; round < 40; round++ { // well past the first few chunks
		for _, enc := range inputs {
			msg, err := d.Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			ops, blobs := carved(msg)
			for _, o := range ops {
				if cap(o) != len(o) {
					t.Fatalf("carved Ops has capacity %d beyond its length %d", cap(o), len(o))
				}
				grown := append(o, types.Op{Key: "intruder", Amount: 99})
				grown[0].Amount = 99 // grown is a copy: the original keeps its 30
			}
			for _, b := range blobs {
				if cap(b) != len(b) {
					t.Fatalf("carved bytes have capacity %d beyond their length %d", cap(b), len(b))
				}
				grown := append(b, 0xFF, 0xFF, 0xFF, 0xFF)
				grown[0] = 0xFF
			}
			kept, want = append(kept, msg), append(want, enc)
		}
	}
	for i, msg := range kept {
		if re := mustEncode(t, msg); !bytes.Equal(re, want[i]) {
			t.Fatalf("message %d changed after appends to its neighbours' fields\n  want: %x\n  got:  %x", i, want[i], re)
		}
	}
}

// bigBlock is a proposal of n two-op payments, the steady-state shape.
func bigBlock(n int) *pbft.PrePrepare {
	b := &types.Block{Instance: 1, SN: 5, State: types.StateVector{1, 2, 3, 4}, Sig: []byte{1, 2}}
	for i := 0; i < n; i++ {
		tx := types.NewPayment("acct-000017", "acct-000042", 30, uint64(i))
		b.Txs = append(b.Txs, *tx)
	}
	return &pbft.PrePrepare{Instance: 1, Seq: 5, Block: b}
}

// TestDecoderAllocsPerMessage bounds the amortised cost of a long-lived
// Decoder: allocations come per chunk and per block, so a transaction
// inside a 512-transaction block, a client submission and a vote each cost
// a small fraction of one. One object per transaction (the Ops slice, as
// before the Decoder) reads 1.0 here; a SubmitMsg decoded one-shot costs 3.
func TestDecoderAllocsPerMessage(t *testing.T) {
	stx := sampleTx(1)
	cases := []struct {
		name  string
		msg   any
		units int // what one decode delivers, in the units bounded
		batch int // decodes per measured run
		bound float64
	}{
		{"transaction in a 512-tx block", bigBlock(512), 512, 1, 0.05},
		{"submission", &core.SubmitMsg{Tx: &stx}, 1, 1000, 0.1},
		{"prepare", &pbft.Prepare{Instance: 1, View: 2, Seq: 3, Replica: 1}, 1, 1000, 0.05},
		{"commit", &pbft.Commit{Instance: 1, View: 2, Seq: 3, Replica: 1}, 1, 1000, 0.05},
		{"checkpoint", &core.CheckpointMsg{Epoch: 4, Replica: 2}, 1, 1000, 0.05},
	}
	for _, c := range cases {
		enc := mustEncode(t, c.msg)
		var d Decoder
		perRun := testing.AllocsPerRun(20, func() {
			for i := 0; i < c.batch; i++ {
				if _, err := d.Decode(enc); err != nil {
					t.Fatal(err)
				}
			}
		})
		got := perRun / float64(c.batch*c.units)
		t.Logf("%s: %.4f allocations each", c.name, got)
		if got > c.bound {
			t.Errorf("%s: %.3f allocations each through a long-lived Decoder, want at most %.2f", c.name, got, c.bound)
		}
	}
}

// TestDecoderRetention pins what a long-lived object costs: of 10 000
// submissions decoded through one Decoder only one is kept, and after a
// collection the heap is back within a few chunks of where it started —
// the kept transaction pins the chunks it was carved from and the few its
// chunk-mates point into, not the stream.
func TestDecoderRetention(t *testing.T) {
	stx := sampleTx(1)
	enc := mustEncode(t, &core.SubmitMsg{Tx: &stx})
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	var keep any
	func() {
		var d Decoder
		for i := 0; i < 10000; i++ {
			msg, err := d.Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			if i == 5000 {
				keep = msg
			}
		}
	}()
	after := heap()
	grew := int64(after) - int64(before)
	t.Logf("one kept submission of 10000 pins %d bytes (%.1f chunks)", grew, float64(grew)/maxChunk)
	if grew > 8*maxChunk {
		t.Fatalf("one kept submission of 10000 pins %d bytes, want at most %d (a few chunks)", grew, 8*maxChunk)
	}
	if re := mustEncode(t, keep); !bytes.Equal(re, enc) {
		t.Fatal("the kept submission changed")
	}
}

// hostileFrames builds, for each message kind that carries blocks, a frame
// of about size bytes whose one block claims a transaction for every per
// bytes of zeros behind the claim. Six zero bytes are a valid empty
// transaction, so per 6 is the most a frame can honestly hold and per 1
// the claim the decoder once believed (152 MiB of transactions for a
// 1 MiB frame).
func hostileFrames(size, per int) [][]byte {
	block := []byte{1, 0, 0, 0, 0} // present; instance, sn, rank 0; empty state
	block = append(appendUint(block, uint64(size/per)), make([]byte, size)...)
	heads := [][]byte{
		{tagPrePrepare, 0, 0, 0},
		{tagViewChange, 0, 0, 0, 0, 1, 0, 0}, // one prepared entry
		append(append([]byte{tagStateTransferResp, 0, 0}, make([]byte, 32)...), 0, 1, 0, 1), // one run of one block
	}
	var frames [][]byte
	for _, h := range heads {
		frames = append(frames, append(h, block...))
	}
	return frames
}

// TestHostileCountBoundsAllocation pins the decoder's amplification bound
// on unauthenticated input: a collection count is believed only up to the
// bytes remaining over the element's minimum encoding, so decoding a frame
// allocates at most 32 times its length whether the claim is rejected
// (one element per byte) or is the largest acceptable one.
func TestHostileCountBoundsAllocation(t *testing.T) {
	for _, per := range []int{1, 6} {
		for _, frame := range hostileFrames(1<<20, per) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Decode(frame)
			runtime.ReadMemStats(&after)
			if per == 1 && err == nil {
				t.Errorf("tag %d: a claim of one transaction per byte was believed", frame[0])
			}
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(frame)); got > limit {
				t.Errorf("tag %d, one transaction claimed per %d bytes: decoding %d bytes allocated %d, want at most %d",
					frame[0], per, len(frame), got, limit)
			}
		}
	}
}
