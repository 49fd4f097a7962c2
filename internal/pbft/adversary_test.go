package pbft

import (
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/types"
)

// vcVoteCount returns the total pending view-change votes across all views.
func vcVoteCount(e *Engine) int {
	total := 0
	for _, votes := range e.vcVotes {
		total += len(votes)
	}
	return total
}

// TestVcVotesBoundedUnderViewSpam pins the memory bound on the view-change
// vote store: a faulty replica voting for ever-higher far-future views must
// occupy one entry, not one per view (the old cleanup only removed views at
// or below the installed one, which far-future spam never reaches).
func TestVcVotesBoundedUnderViewSpam(t *testing.T) {
	sim := simnet.New(1)
	e := newEngine(Config{N: 4, F: 1, ID: 1, Instance: 0}, &recordingTransport{}, simnet.On(sim, 1))
	for v := uint64(2); v < 2000; v += 2 {
		e.Handle(3, &ViewChange{Instance: 0, NewView: v, Replica: 3})
	}
	if got := vcVoteCount(e); got != 1 {
		t.Fatalf("spamming replica holds %d pending votes, want 1", got)
	}
	if len(e.vcVotes) != 1 {
		t.Fatalf("vcVotes tracks %d views, want 1", len(e.vcVotes))
	}
	// Several spammers: still at most one entry per replica.
	for v := uint64(3); v < 1000; v += 2 {
		e.Handle(0, &ViewChange{Instance: 0, NewView: v, Replica: 0})
		e.Handle(2, &ViewChange{Instance: 0, NewView: v + 1000, Replica: 2})
	}
	if got := vcVoteCount(e); got > e.cfg.N {
		t.Fatalf("%d pending votes exceed the %d-replica bound", got, e.cfg.N)
	}
	// Out-of-range replica indices in forged votes are dropped, not indexed.
	e.Handle(3, &ViewChange{Instance: 0, NewView: 5000, Replica: 99})
	e.Handle(3, &ViewChange{Instance: 0, NewView: 5000, Replica: -1})
	if got := vcVoteCount(e); got > e.cfg.N {
		t.Fatalf("forged replica index grew the vote store to %d", got)
	}
}

// TestVcVoteReplacementKeepsHighest: a replica's newer vote evicts its older
// pending one, and a lower or repeated vote is ignored.
func TestVcVoteReplacementKeepsHighest(t *testing.T) {
	sim := simnet.New(1)
	e := newEngine(Config{N: 4, F: 1, ID: 1, Instance: 0}, &recordingTransport{}, simnet.On(sim, 1))
	e.Handle(3, &ViewChange{Instance: 0, NewView: 4, Replica: 3})
	e.Handle(3, &ViewChange{Instance: 0, NewView: 8, Replica: 3})
	if _, ok := e.vcVotes[4]; ok {
		t.Fatal("older vote not evicted by the newer one")
	}
	if _, ok := e.vcVotes[8][3]; !ok {
		t.Fatal("newer vote not recorded")
	}
	e.Handle(3, &ViewChange{Instance: 0, NewView: 6, Replica: 3}) // lower: ignored
	e.Handle(3, &ViewChange{Instance: 0, NewView: 8, Replica: 3}) // repeat: ignored
	if got := vcVoteCount(e); got != 1 {
		t.Fatalf("%d pending votes after replacement, want 1", got)
	}
}

// driveDeliver pushes full three-phase traffic for the given sequence
// numbers through a recordingTransport engine with ID 1 (votes come from
// replicas 0, 2 and 3 — a quorum of 3 at n=4 — since the engine's own
// broadcast votes are captured, not delivered back). Returns the delivered
// blocks in order.
func driveDeliver(t *testing.T, e *Engine, leader int, seqs ...uint64) []*types.Block {
	t.Helper()
	var out []*types.Block
	for _, sn := range seqs {
		b := mkBlock(sn, 2)
		d := b.Digest()
		e.Handle(leader, &PrePrepare{Instance: 0, View: e.view, Seq: sn, Block: b})
		for _, r := range []int{0, 2, 3} {
			e.Handle(r, &Prepare{Instance: 0, View: e.view, Seq: sn, Digest: d, Replica: r})
		}
		for _, r := range []int{0, 2, 3} {
			e.Handle(r, &Commit{Instance: 0, View: e.view, Seq: sn, Digest: d, Replica: r})
		}
		out = append(out, b)
	}
	return out
}

// TestNewViewRetainedBlocksCoverLaggards is the regression for the diverged
// delivered-prefix hole: certificates are discarded at delivery, so when
// honest replicas' delivered prefixes diverge at view-change time the vote
// set can lack a certificate for a sequence number some of them already
// executed. The old assembly filled such gaps with no-ops — a conflicting
// commit waiting to happen. The new leader must instead re-propose the
// block it retained from its own delivery.
func TestNewViewRetainedBlocksCoverLaggards(t *testing.T) {
	sim := simnet.New(1)
	tr := &recordingTransport{}
	var delivered []*types.Block
	e := newEngine(Config{N: 4, F: 1, ID: 1, Instance: 0,
		OnDeliver: func(b *types.Block) { delivered = append(delivered, b) }}, tr, simnet.On(sim, 1))

	// The future leader of view 1 delivers seqs 0..2 in view 0.
	proposed := driveDeliver(t, e, 0, 0, 1, 2)
	if len(delivered) != 3 {
		t.Fatalf("setup delivered %d blocks, want 3", len(delivered))
	}

	// View change to view 1 (led by this engine) with diverged prefixes:
	// replica 0 delivered 3, replicas 2 and 3 only 1, and nobody holds a
	// certificate for seqs 1 or 2.
	e.Handle(0, &ViewChange{Instance: 0, NewView: 1, Replica: 0, Delivered: 3})
	e.Handle(2, &ViewChange{Instance: 0, NewView: 1, Replica: 2, Delivered: 1})
	e.Handle(3, &ViewChange{Instance: 0, NewView: 1, Replica: 3, Delivered: 1})

	var nv *NewView
	for _, m := range tr.msgs {
		if v, ok := m.(*NewView); ok {
			nv = v
		}
	}
	if nv == nil {
		t.Fatal("leader with a quorum of votes sent no NewView")
	}
	if len(nv.Reproposals) != 2 {
		t.Fatalf("NewView carries %d reproposals, want 2 (seqs 1 and 2): %v", len(nv.Reproposals), nv.Reproposals)
	}
	for i, pp := range nv.Reproposals {
		wantSeq := uint64(1 + i)
		if pp.Seq != wantSeq {
			t.Fatalf("reproposal %d covers seq %d, want %d", i, pp.Seq, wantSeq)
		}
		if pp.Block.Digest() != proposed[wantSeq].Digest() {
			t.Fatalf("seq %d re-proposed as a different block (noop fill?) — laggards would commit a conflict", wantSeq)
		}
	}
}

// TestNewViewSkipsUnprovableSeqs: when neither a certificate nor the new
// leader's own retention proves what was decided at a sequence number that
// some replica in the vote set already delivered, the assembly must skip it
// — leaving the laggard's gap — rather than guess a no-op. Sequence numbers
// at or above every vote's delivered prefix are still safely noop-filled.
func TestNewViewSkipsUnprovableSeqs(t *testing.T) {
	sim := simnet.New(1)
	tr := &recordingTransport{}
	e := newEngine(Config{N: 4, F: 1, ID: 1, Instance: 0}, tr, simnet.On(sim, 1))

	// This leader delivered nothing; replica 0 claims a delivered prefix of
	// 2 and replica 3 holds a prepared certificate at seq 3.
	cert := mkBlock(3, 2)
	e.Handle(0, &ViewChange{Instance: 0, NewView: 1, Replica: 0, Delivered: 2})
	e.Handle(2, &ViewChange{Instance: 0, NewView: 1, Replica: 2, Delivered: 0})
	e.Handle(3, &ViewChange{Instance: 0, NewView: 1, Replica: 3, Delivered: 0,
		Prepared: []PreparedEntry{{Seq: 3, View: 0, Block: cert}}})

	var nv *NewView
	for _, m := range tr.msgs {
		if v, ok := m.(*NewView); ok {
			nv = v
		}
	}
	if nv == nil {
		t.Fatal("leader with a quorum of votes sent no NewView")
	}
	// Seqs 0 and 1 are below replica 0's delivered prefix with no proof of
	// what was decided: skipped. Seq 2 is above every delivered prefix:
	// noop-filled. Seq 3 carries the certificate.
	if len(nv.Reproposals) != 2 {
		t.Fatalf("NewView carries %d reproposals, want 2: %v", len(nv.Reproposals), nv.Reproposals)
	}
	if nv.Reproposals[0].Seq != 2 || len(nv.Reproposals[0].Block.Txs) != 0 {
		t.Fatalf("seq 2 not noop-filled: %v", nv.Reproposals[0])
	}
	if nv.Reproposals[1].Seq != 3 || nv.Reproposals[1].Block.Digest() != cert.Digest() {
		t.Fatalf("seq 3 did not carry the prepared certificate: %v", nv.Reproposals[1])
	}
}

// TestNewViewReplayBelowNextDeliverDropped pins the replay-path audit from
// the other side: a further-ahead replica receiving a NewView whose
// reproposals start below its own delivered prefix must silently drop the
// stale ones (onPrePrepare's seq < nextDeliver guard) — no freed-slot
// resurrection, no double delivery — while still processing the fresh tail.
func TestNewViewReplayBelowNextDeliverDropped(t *testing.T) {
	sim := simnet.New(1)
	var delivered []*types.Block
	e := newEngine(Config{N: 4, F: 1, ID: 1, Instance: 0,
		OnDeliver: func(b *types.Block) { delivered = append(delivered, b) }}, &recordingTransport{}, simnet.On(sim, 1))
	driveDeliver(t, e, 0, 0, 1, 2)

	nv := &NewView{Instance: 0, View: 1}
	for seq := uint64(1); seq <= 3; seq++ {
		nv.Reproposals = append(nv.Reproposals, &PrePrepare{
			Instance: 0, View: 1, Seq: seq, Block: mkBlock(seq, 1),
		})
	}
	e.Handle(1, nv) // view 1's leader is replica 1
	if e.View() != 1 {
		t.Fatalf("view = %d, want 1", e.View())
	}
	if len(delivered) != 3 {
		t.Fatalf("stale reproposals re-delivered: %d blocks, want 3", len(delivered))
	}
	if e.nextDeliver != 3 || e.slots.base != 3 {
		t.Fatalf("delivered prefix regressed: nextDeliver=%d base=%d", e.nextDeliver, e.slots.base)
	}
	// The fresh reproposal at seq 3 was accepted into a live slot.
	s := e.slots.get(3)
	if s == nil || !s.hasBlock {
		t.Fatal("fresh reproposal at seq 3 not accepted")
	}
}

// TestEquivocatingLeaderCannotSplitAgreement runs the equivocation attack
// end to end: the leader sends conflicting proposals to disjoint halves,
// neither half can reach a quorum, the instance rotates the leader, and no
// two replicas ever deliver different blocks at the same height.
func TestEquivocatingLeaderCannotSplitAgreement(t *testing.T) {
	adv := &Adversary{Equivocate: true}
	// A generous timeout bounds the run to exactly one view change before
	// the new leader proposes (same shape as the crashed-leader test).
	h := newHarness(t, 4, 1, func(i int, cfg *Config) {
		cfg.Timeout = 2 * time.Second
		if i == 0 {
			cfg.Adversary = adv
		}
	})
	if err := h.engines[0].Propose(mkBlock(0, 2)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		h.engines[i].SetTarget(1)
	}
	h.sim.Run(simnet.Time(3 * time.Second))
	for i := 1; i < 4; i++ {
		if h.engines[i].View() == 0 {
			t.Fatalf("replica %d never rotated away from the equivocating leader", i)
		}
	}
	// The new leader decides the disputed height; everyone converges.
	lead := h.engines[1]
	if !lead.IsLeader() || !lead.CanPropose() {
		t.Fatalf("replica 1 cannot propose in view %d", lead.View())
	}
	if err := lead.Propose(mkBlock(lead.NextProposeSeq(), 1)); err != nil {
		t.Fatal(err)
	}
	h.sim.RunAll(0)
	for i := 1; i < 4; i++ {
		if len(h.delivered[i]) == 0 {
			t.Fatalf("replica %d delivered nothing after the rotation", i)
		}
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			n := len(h.delivered[i])
			if len(h.delivered[j]) < n {
				n = len(h.delivered[j])
			}
			for k := 0; k < n; k++ {
				if h.delivered[i][k].Digest() != h.delivered[j][k].Digest() {
					t.Fatalf("replicas %d and %d committed conflicting blocks at height %d", i, j, k)
				}
			}
		}
	}
}

// TestMutedLeaderForcesViewChange: a leader-muted adversary swallows its own
// proposals; honest replicas detect the silence, rotate, and make progress
// under the next leader.
func TestMutedLeaderForcesViewChange(t *testing.T) {
	adv := &Adversary{MuteLeader: true}
	h := newHarness(t, 4, 1, func(i int, cfg *Config) {
		cfg.Timeout = 2 * time.Second
		if i == 0 {
			cfg.Adversary = adv
		}
	})
	// The muted leader "proposes" — the call succeeds, nothing is sent.
	if err := h.engines[0].Propose(mkBlock(0, 2)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		h.engines[i].SetTarget(1)
	}
	h.sim.Run(simnet.Time(3 * time.Second))
	for i := 1; i < 4; i++ {
		if h.engines[i].View() != 1 {
			t.Fatalf("replica %d in view %d, want 1", i, h.engines[i].View())
		}
	}
	lead := h.engines[1]
	if err := lead.Propose(mkBlock(lead.NextProposeSeq(), 1)); err != nil {
		t.Fatal(err)
	}
	h.sim.RunAll(0)
	for i := 1; i < 4; i++ {
		if len(h.delivered[i]) != 1 {
			t.Fatalf("replica %d delivered %d blocks after rotation", i, len(h.delivered[i]))
		}
	}
}
