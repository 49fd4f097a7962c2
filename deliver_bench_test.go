package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/partition"
	"repro/internal/pbft"
	"repro/internal/types"
	"repro/internal/wire"
)

// deliverHarness is one Orthrus replica with no transport, clock or
// consensus under it: the harness is its network (it keeps the handler and
// the replica's checkpoint broadcasts), its clock (which never fires) and
// the driver of its SB deliver hooks. Every transaction reaches the replica
// the way it does on a real transport — a wire-decoded copy without Idx —
// first as a client submission, then inside a delivered block; at each
// epoch boundary the peers' checkpoint votes run the checkpoint GC.
type deliverHarness struct {
	r       *core.Replica
	handle  types.Handler
	ckpt    *core.CheckpointMsg
	deliver []func(*types.Block)
	payers  [][]types.Key // by instance: a payer's transactions ride its own
	names   []types.Key
	blocks  uint64
	nonce   uint64
}

const (
	deliverM        = 4
	deliverEpochLen = 8
	deliverBlockTxs = 512
)

func (h *deliverHarness) Register(_ int, fn types.Handler) { h.handle = fn }
func (h *deliverHarness) Send(int, int, any)               {}
func (h *deliverHarness) Broadcast(_ int, msg any) {
	if m, ok := msg.(*core.CheckpointMsg); ok {
		h.ckpt = m
	}
}
func (h *deliverHarness) Now() types.Time                             { return 0 }
func (h *deliverHarness) CallAt(types.Time, func(a, b any), any, any) {}

// handSB is an SB instance that never proposes; the harness delivers
// through its hook.
type handSB struct{}

func (handSB) CanPropose() bool           { return false }
func (handSB) NextProposeSeq() uint64     { return 0 }
func (handSB) Propose(*types.Block) error { return nil }
func (handSB) SetTarget(uint64)           {}
func (handSB) IsLeader() bool             { return false }
func (handSB) Leader() int                { return 1 }
func (handSB) View() uint64               { return 0 }
func (handSB) Stop()                      {}
func (handSB) Resume()                    {}
func (handSB) Complain()                  {}
func (handSB) ReleaseBelow(uint64)        {}
func (handSB) InFlight() int              { return 0 }

func (handSB) Handle(int, pbft.Message) bool   { return false }
func (handSB) SkipDelivered(*types.Block) bool { return false }
func (handSB) Log(uint64) []*types.Block       { return nil }

func newDeliverHarness() *deliverHarness {
	h := &deliverHarness{payers: make([][]types.Key, deliverM), deliver: make([]func(*types.Block), deliverM)}
	for i := 0; i < 4000; i++ {
		k := types.Key(fmt.Sprintf("acct%04d", i))
		h.names = append(h.names, k)
		b := partition.Assign(k, deliverM)
		h.payers[b] = append(h.payers[b], k)
	}
	h.r = core.NewReplica(core.Config{
		N: 4, F: 1, ID: 0, M: deliverM, Mode: core.OrthrusMode(), Params: core.Params{EpochLen: deliverEpochLen},
		Genesis: func(st *ledger.Store) {
			for _, k := range h.names {
				st.Credit(k, 1<<40)
			}
		},
		SB: func(instance int, hooks core.SBHooks) core.SB {
			h.deliver[instance] = hooks.OnDeliver
			return handSB{}
		},
	}, h, h)
	return h
}

// nextBlock builds the next block in round-robin instance order — payments
// with one contract call and one two-payer payment in every eight — and
// returns it as its receiver sees it: encoded as a PrePrepare and decoded.
func (h *deliverHarness) nextBlock(tb testing.TB) *types.Block {
	inst := int(h.blocks % deliverM)
	b := &types.Block{Instance: inst, SN: h.blocks / deliverM, Rank: h.blocks/deliverM + 1, Proposer: 1,
		State: make(types.StateVector, deliverM), Txs: make([]types.Transaction, 0, deliverBlockTxs)}
	h.blocks++
	own := h.payers[inst]
	for i := 0; i < deliverBlockTxs; i++ {
		h.nonce++
		from, to := own[h.nonce%uint64(len(own))], h.names[h.nonce*7%uint64(len(h.names))]
		switch i % 8 {
		case 3:
			b.Txs = append(b.Txs, *types.NewContractCall(from, []types.Key{from}, 1,
				[]types.Op{types.NewSharedAssign(types.Key(fmt.Sprintf("rec%d", h.nonce%256)), 1)}, h.nonce))
		case 5:
			b.Txs = append(b.Txs, *types.NewMultiPayment(from, []types.Transfer{
				{From: from, To: to, Amount: 1}, {From: own[(h.nonce+1)%uint64(len(own))], To: to, Amount: 2}}, h.nonce))
		default:
			b.Txs = append(b.Txs, *types.NewPayment(from, to, 1, h.nonce))
		}
	}
	frame, err := wire.Append(nil, &pbft.PrePrepare{Instance: inst, Seq: b.SN, Block: b})
	if err != nil {
		tb.Fatal(err)
	}
	msg, err := wire.Decode(frame)
	if err != nil {
		tb.Fatal(err)
	}
	return msg.(*pbft.PrePrepare).Block
}

// run takes one decoded block through the replica: each transaction is
// submitted (from a copy, as a decoded SubmitMsg would hold), the block is
// delivered, executes and confirms, and a block that completes an epoch is
// followed by the peers' checkpoint votes.
func (h *deliverHarness) run(tb testing.TB, b *types.Block, subs []types.Transaction) {
	for i := range subs {
		if err := h.r.SubmitTx(&subs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	h.deliver[b.Instance](b)
	if b.Instance == deliverM-1 && (b.SN+1)%deliverEpochLen == 0 {
		e := b.SN / deliverEpochLen
		if h.ckpt == nil || h.ckpt.Epoch != e {
			tb.Fatalf("no checkpoint broadcast for epoch %d", e)
		}
		for rid := 1; rid <= 3; rid++ {
			h.handle(rid, &core.CheckpointMsg{Epoch: e, Digest: h.ckpt.Digest, Replica: rid})
		}
		if _, stable := h.r.Epoch(); stable != e+1 {
			tb.Fatalf("epoch %d did not stabilize", e)
		}
	}
}

// submissions copies a block's transactions without their cached IDs'
// owner: what the client's SubmitMsg decodes to.
func submissions(b *types.Block) []types.Transaction {
	return append([]types.Transaction(nil), b.Txs...)
}

// BenchmarkReplicaDeliver measures the replica's per-block work on the real
// path: one wire-decoded 512-transaction block per iteration through
// SubmitTx, delivery, the escrow phase, global ordering and confirmation,
// with checkpoint GC every 32 blocks. Building, encoding and decoding the
// block is outside the timer.
func BenchmarkReplicaDeliver(b *testing.B) {
	h := newDeliverHarness()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		blk := h.nextBlock(b)
		subs := submissions(blk)
		b.StartTimer()
		h.run(b, blk, subs)
	}
	b.StopTimer()
	ok, bad := h.r.Confirmed()
	if want := uint64(b.N) * deliverBlockTxs; ok != want || bad != 0 {
		b.Fatalf("confirmed %d ok, %d aborted of %d", ok, bad, want)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*deliverBlockTxs), "ns/tx")
}

// TestDeliverAllocsPerTransaction bounds the steady-state allocations of
// the same path: once the transaction table, the queues and the ledger's
// pools are warm (two epochs), a further epoch — checkpoint GC included —
// may allocate per block (the slot side array, queue growth), not per
// transaction. A per-transaction map entry or tracker allocation shows as
// one or more.
func TestDeliverAllocsPerTransaction(t *testing.T) {
	const epoch = deliverM * deliverEpochLen
	h := newDeliverHarness()
	var blocks []*types.Block
	var subs [][]types.Transaction
	for i := 0; i < 4*epoch; i++ {
		blocks = append(blocks, h.nextBlock(t))
		subs = append(subs, submissions(blocks[i]))
	}
	next := 0
	step := func() {
		h.run(t, blocks[next], subs[next])
		next++
	}
	for next < 2*epoch {
		step()
	}
	perBlock := testing.AllocsPerRun(epoch, step) // one warm-up call, then a whole epoch
	if perTx := perBlock / deliverBlockTxs; perTx > 0.25 {
		t.Fatalf("%.3f allocations per delivered transaction (%.0f per block), want at most 0.25", perTx, perBlock)
	}
	if ok, bad := h.r.Confirmed(); ok != uint64(next)*deliverBlockTxs || bad != 0 {
		t.Fatalf("confirmed %d ok, %d aborted of %d", ok, bad, next*deliverBlockTxs)
	}
}
