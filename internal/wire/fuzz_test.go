package wire

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pbft"
	"repro/internal/types"
)

// FuzzWireRoundTrip throws arbitrary bytes at the decoder (following the
// FuzzScenarioDSL pattern: the seed corpus under testdata/fuzz holds one
// valid encoding per message type plus known-malformed inputs). The
// properties pinned:
//
//  1. Decode never panics — malformed input returns an error.
//  2. Anything that decodes re-encodes, and the re-encoding is a fixed
//     point: decode(encode(m)) == m, checked as byte equality of a second
//     encode/decode round (the codec is canonical, but raw fuzz input may
//     use non-minimal varints, so the input itself is not compared).
//  3. One long-lived Decoder fed every input in turn agrees with the
//     one-shot decode: the same verdict and the same message.
func FuzzWireRoundTrip(f *testing.F) {
	// Seed every message type through the pooled-frame encode path the
	// transports use: Append onto one warm scratch buffer reused across
	// messages, exactly like a sync.Pool frame (byte-identical to Encode,
	// pinned here so corpus inputs cover that path's real outputs). Each
	// encoding is also seeded truncated mid-message and with trailing
	// garbage — the shapes a reused read buffer shows a buggy decoder.
	scratch := make([]byte, 0, 4096)
	for _, msg := range messages() {
		enc, err := Append(scratch[:0], msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(enc))
		f.Add(bytes.Clone(enc[:len(enc)/2]))
		f.Add(append(bytes.Clone(enc), 0xEE, 0xEE))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x01})
	f.Add([]byte{tagViewChange, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F})
	// Blocks claiming more transactions than their bytes can hold, at the
	// old bound (one per byte) and at the true one (one per six).
	for _, per := range []int{1, 6} {
		for _, frame := range hostileFrames(4096, per) {
			f.Add(frame)
		}
	}
	var shared Decoder
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data)
		streamed, serr := shared.Decode(data)
		if (err == nil) != (serr == nil) {
			t.Fatalf("one-shot decode says %v, a long-lived Decoder %v", err, serr)
		}
		if err != nil {
			return
		}
		enc, err := Encode(msg)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		if senc, err := Encode(streamed); err != nil || !bytes.Equal(senc, enc) {
			t.Fatalf("a long-lived Decoder decoded a different message (%v):\n  one-shot:   %x\n  long-lived: %x", err, enc, senc)
		}
		msg2, err := Decode(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding failed to decode: %v", err)
		}
		enc2, err := Encode(msg2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\n  first:  %x\n  second: %x", enc, enc2)
		}
	})
}

// deafNetwork is the network and clock of the replica FuzzHandleDecoded
// feeds: it keeps the registered handler, drops (and counts) whatever the
// replica sends and never fires a timer, so the only input is the fuzzer's.
type deafNetwork struct {
	handle          types.Handler
	sent, delivered int // messages the replica sent, blocks it delivered
}

func (d *deafNetwork) Register(_ int, h types.Handler)           { d.handle = h }
func (d *deafNetwork) Send(int, int, any)                        { d.sent++ }
func (d *deafNetwork) Broadcast(int, any)                        { d.sent++ }
func (*deafNetwork) Now() types.Time                             { return 0 }
func (*deafNetwork) CallAt(types.Time, func(a, b any), any, any) {}

// stagedReplica builds replica 1 of a 4-replica group — message-level PBFT
// engines, checkpoints and state transfer all on — and brings it, by honest
// traffic from its peers, one message short of a threshold on every path:
// instance 0's slot 0 one commit short of delivery and slot 1 one prepare
// short of prepared, view 2 of instance 3 (which replica 1 would lead) one
// vote short of its NewView, epoch 1 one checkpoint vote short of a quorum,
// catch-up one answer short of being applied. It returns the replica's
// network and the message from replica 3 that crosses each threshold.
func stagedReplica() (*deafNetwork, []any) {
	const n = 4
	nw := &deafNetwork{}
	r := core.NewReplica(core.Config{N: n, F: 1, ID: 1, Mode: core.OrthrusMode(),
		Params:         core.Params{EpochLen: 2},
		OnBlockDeliver: func(int, *types.Block) { nw.delivered++ }}, nw, nw)
	r.Start()
	block := func(instance int, sn uint64) *types.Block {
		return &types.Block{Instance: instance, SN: sn, Rank: 1, State: make(types.StateVector, n)}
	}
	b0, b1 := block(0, 0), block(0, 1)
	run := []core.BlockRun{{Instance: 2, Blocks: []*types.Block{block(2, 0)}}}
	nw.handle(0, &pbft.PrePrepare{Block: b0})
	nw.handle(0, &pbft.PrePrepare{Seq: 1, Block: b1})
	nw.handle(3, &pbft.Prepare{Digest: b0.Digest(), Replica: 3})
	for _, from := range []int{0, 2} {
		nw.handle(from, &pbft.Prepare{Digest: b0.Digest(), Replica: from})
		nw.handle(from, &pbft.Commit{Digest: b0.Digest(), Replica: from})
		nw.handle(from, &pbft.Prepare{Seq: 1, Digest: b1.Digest(), Replica: from})
		nw.handle(from, &pbft.ViewChange{Instance: 3, NewView: 2, Replica: from})
		nw.handle(from, &core.CheckpointMsg{Epoch: 1, Digest: [32]byte{1}, Replica: from})
		nw.handle(from, &core.StateTransferResp{Replica: from, Runs: run})
	}
	return nw, []any{
		&pbft.Commit{Digest: b0.Digest(), Replica: 3},
		&pbft.Prepare{Seq: 1, Digest: b1.Digest(), Replica: 3},
		&pbft.ViewChange{Instance: 3, NewView: 2, Replica: 3, Delivered: 1,
			Prepared: []pbft.PreparedEntry{{Seq: 2, Block: block(3, 2)}}},
		&core.CheckpointMsg{Epoch: 1, Digest: [32]byte{1}, Replica: 3},
		&core.StateTransferResp{Replica: 3, Runs: run},
	}
}

// TestStagedReplicaIsOneMessageShort keeps stagedReplica's promise: each
// threshold-crossing message, and none of the staging before it, makes the
// replica deliver a block or answer with a message of its own.
func TestStagedReplicaIsOneMessageShort(t *testing.T) {
	_, crossing := stagedReplica()
	for _, msg := range crossing {
		nw, _ := stagedReplica()
		if nw.delivered != 0 {
			t.Fatalf("staging delivered %d blocks", nw.delivered)
		}
		enc, err := Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		before := *nw
		nw.handle(3, dec)
		if nw.sent == before.sent && nw.delivered == before.delivered {
			t.Fatalf("%T from replica 3 crossed no threshold", msg)
		}
	}
}

// FuzzHandleDecoded is the survival property behind the codec's: whatever
// decodes is handed, from a fuzzed sender, to a live replica's registered
// handler and must not panic it. Every input meets a replica of its own
// (stagedReplica), so a crasher reproduces from its one corpus file; the
// staging is what lets a single message reach quorum-gated code. Seeds: the
// committed FuzzWireRoundTrip corpus, every message type's valid encoding
// and the threshold-crossing messages, each from every replica, a client and
// a negative sender.
func FuzzHandleDecoded(f *testing.F) {
	corpus, err := filepath.Glob("testdata/fuzz/FuzzWireRoundTrip/*")
	if err != nil || len(corpus) == 0 {
		f.Fatalf("committed FuzzWireRoundTrip corpus not found (%v)", err)
	}
	var seeds [][]byte
	for _, path := range corpus {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		// "go test fuzz v1\n[]byte(<quoted>)\n"
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			f.Fatalf("%s: not a one-argument []byte corpus file: %v", path, err)
		}
		seeds = append(seeds, []byte(data))
	}
	_, crossing := stagedReplica()
	for _, msg := range append(messages(), crossing...) {
		enc, err := Encode(msg)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, enc)
	}
	for _, data := range seeds {
		for from := -1; from <= 4; from++ {
			f.Add(from, data)
		}
	}
	f.Fuzz(func(t *testing.T, from int, data []byte) {
		if msg, err := Decode(data); err == nil {
			nw, _ := stagedReplica()
			nw.handle(from, msg)
		}
	})
}
