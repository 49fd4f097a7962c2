package pbft

import (
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/types"
)

// vcVoteCount returns the number of view-change votes the engine holds, for
// any view: installing a view clears the votes it makes dead.
func vcVoteCount(e *Engine) int {
	total := 0
	for _, vc := range e.vcVotes {
		if vc != nil {
			total++
		}
	}
	return total
}

// vcViews returns how many distinct views hold a vote.
func vcViews(e *Engine) int {
	views := map[uint64]bool{}
	for _, vc := range e.vcVotes {
		if vc != nil {
			views[vc.NewView] = true
		}
	}
	return len(views)
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
	if got := vcViews(e); got != 1 {
		t.Fatalf("vcVotes tracks %d views, want 1", got)
	}
	// Several spammers: still at most one entry per replica.
	for v := uint64(3); v < 1000; v += 2 {
		e.Handle(0, &ViewChange{Instance: 0, NewView: v, Replica: 0})
		e.Handle(2, &ViewChange{Instance: 0, NewView: v + 1000, Replica: 2})
	}
	if got := vcVoteCount(e); got > e.cfg.N {
		t.Fatalf("%d pending votes exceed the %d-replica bound", got, e.cfg.N)
	}
	// Votes naming anyone but their sender — out of range or not — are
	// refused, not indexed, and replica 3's own vote stands.
	before := *e.vcVotes[3]
	for _, forged := range []int{99, -1, 0} {
		if e.Handle(3, &ViewChange{Instance: 0, NewView: 5000, Replica: forged}) {
			t.Fatalf("vote from replica 3 naming replica %d was accepted", forged)
		}
	}
	if got := vcVoteCount(e); got > e.cfg.N || e.vcVotes[3].NewView != before.NewView || e.vcVotes[0].NewView == 5000 {
		t.Fatalf("forged replica index reached the vote book (%d votes)", got)
	}
}

// TestVcVoteReplacementKeepsHighest: a replica's newer vote evicts its older
// pending one, and a lower or repeated vote is ignored.
func TestVcVoteReplacementKeepsHighest(t *testing.T) {
	sim := simnet.New(1)
	e := newEngine(Config{N: 4, F: 1, ID: 1, Instance: 0}, &recordingTransport{}, simnet.On(sim, 1))
	e.Handle(3, &ViewChange{Instance: 0, NewView: 4, Replica: 3})
	e.Handle(3, &ViewChange{Instance: 0, NewView: 8, Replica: 3})
	if got := vcVoteCount(e); got != 1 {
		t.Fatalf("older vote not evicted by the newer one: %d pending votes", got)
	}
	if vc := e.vcVotes[3]; vc == nil || vc.NewView != 8 {
		t.Fatal("newer vote not recorded")
	}
	e.Handle(3, &ViewChange{Instance: 0, NewView: 6, Replica: 3}) // lower: ignored
	e.Handle(3, &ViewChange{Instance: 0, NewView: 8, Replica: 3}) // repeat: ignored
	if got := vcVoteCount(e); got != 1 || e.vcVotes[3].NewView != 8 {
		t.Fatalf("%d pending votes after replacement (replica 3 at view %d), want 1 at view 8", got, e.vcVotes[3].NewView)
	}
}

// TestForgedQuorumDoesNotDeliver: one sender, four names. Replica 3 leads
// instance 3 and sends replica 1 its proposal plus prepares and commits in
// every replica's name, in and out of range. A vote is its sender's, so only
// the one in its own name counts and nothing delivers — until the same
// votes arrive from the replicas they name.
func TestForgedQuorumDoesNotDeliver(t *testing.T) {
	sim := simnet.New(1)
	delivered := 0
	e := newEngine(Config{N: 4, F: 1, ID: 1, Instance: 3,
		OnDeliver: func(*types.Block) { delivered++ }}, &recordingTransport{}, simnet.On(sim, 1))
	b := &types.Block{Instance: 3, SN: 0}
	d := b.Digest()
	if !e.Handle(3, &PrePrepare{Instance: 3, Block: b}) {
		t.Fatal("the leader's own proposal was rejected")
	}
	for _, name := range []int{0, 1, 2, 3, 99, -1} {
		okP := e.Handle(3, &Prepare{Instance: 3, Digest: d, Replica: name})
		okC := e.Handle(3, &Commit{Instance: 3, Digest: d, Replica: name})
		if okP != (name == 3) || okC != (name == 3) {
			t.Fatalf("votes from replica 3 naming replica %d: accepted prepare=%v commit=%v", name, okP, okC)
		}
	}
	if e.Handle(4, &Prepare{Instance: 3, Digest: d, Replica: 4}) || e.Handle(-1, &Commit{Instance: 3, Digest: d, Replica: -1}) {
		t.Fatal("vote from outside the replica group accepted")
	}
	if delivered != 0 {
		t.Fatal("a quorum forged by one sender delivered")
	}
	for _, r := range []int{0, 2} {
		e.Handle(r, &Prepare{Instance: 3, Digest: d, Replica: r})
		e.Handle(r, &Commit{Instance: 3, Digest: d, Replica: r})
	}
	if delivered != 1 {
		t.Fatalf("honest quorum delivered %d blocks, want 1", delivered)
	}
}

// TestHostileProposalsRejected: a proposal, re-proposal or prepared
// certificate must carry a block, and the block must say the slot it is
// offered for; anything else is refused whole, from the leader included.
func TestHostileProposalsRejected(t *testing.T) {
	sim := simnet.New(1)
	tr := &recordingTransport{}
	e := newEngine(Config{N: 4, F: 1, ID: 1, Instance: 0}, tr, simnet.On(sim, 1))
	for name, m := range map[string]Message{
		"nil block":              &PrePrepare{Seq: 0},
		"another instance":       &PrePrepare{Seq: 0, Block: &types.Block{Instance: 2, SN: 0}},
		"another sequence":       &PrePrepare{Seq: 0, Block: mkBlock(1, 1)},
		"nil re-proposal":        &NewView{View: 4, Reproposals: []*PrePrepare{{View: 4, Seq: 0}}},
		"misfiled re-proposal":   &NewView{View: 4, Reproposals: []*PrePrepare{{View: 4, Seq: 0, Block: mkBlock(3, 0)}}},
		"nil prepared block":     &ViewChange{NewView: 1, Replica: 0, Prepared: []PreparedEntry{{Seq: 0}}},
		"misfiled prepared cert": &ViewChange{NewView: 1, Replica: 0, Prepared: []PreparedEntry{{Seq: 0, Block: mkBlock(2, 0)}}},
	} {
		if e.Handle(0, m) { // replica 0 leads views 0 and 4
			t.Fatalf("%s: accepted", name)
		}
	}
	if e.View() != 0 || e.slots.get(0) != nil || len(tr.msgs) != 0 || vcVoteCount(e) != 0 {
		t.Fatalf("rejected input left a trace: view %d, slot 0 %v, %d messages sent, %d votes booked",
			e.View(), e.slots.get(0), len(tr.msgs), vcVoteCount(e))
	}
}

// TestSequenceNumbersOutOfReachAreIgnored: a sequence number is a peer's
// word, and the slot ring and the NewView fill loop are sized by it. What
// names one maxAhead or more above the cursor is ignored — not refused: an
// honest replica far ahead of this one sends exactly that — and sizes
// nothing: the ring stops at maxAhead, and a new leader's fill loop ends
// although its voters claim sequence numbers 2^40 and 2^50.
func TestSequenceNumbersOutOfReachAreIgnored(t *testing.T) {
	sim := simnet.New(1)
	tr := &recordingTransport{}
	e := newEngine(Config{N: 4, F: 1, ID: 1, Instance: 0}, tr, simnet.On(sim, 1))
	for name, m := range map[string]Message{
		"proposal": &PrePrepare{Seq: maxAhead, Block: mkBlock(maxAhead, 1)},
		"prepare":  &Prepare{Seq: 1 << 62, Replica: 0},
		"commit":   &Commit{Seq: 1 << 62, Replica: 0},
	} {
		if !e.Handle(0, m) {
			t.Fatalf("%s out of reach: refused, want ignored", name)
		}
	}
	if len(e.slots.ring) != 0 || len(tr.msgs) != 0 {
		t.Fatalf("out-of-reach input left a trace: ring of %d, %d messages sent", len(e.slots.ring), len(tr.msgs))
	}
	if e.Handle(0, &Commit{Seq: maxAhead - 1, Replica: 0}); e.slots.get(maxAhead-1) == nil || len(e.slots.ring) != maxAhead {
		t.Fatalf("the last sequence number in reach got no slot, or the ring (%d) outgrew maxAhead", len(e.slots.ring))
	}
	// Replica 1 leads view 1. Its voters' word would size the fill loop.
	far := uint64(1) << 40
	e.Handle(0, &ViewChange{NewView: 1, Replica: 0, Delivered: 1 << 50})
	e.Handle(2, &ViewChange{NewView: 1, Replica: 2, Prepared: []PreparedEntry{{Seq: far, Block: mkBlock(far, 0)}}})
	e.Handle(3, &ViewChange{NewView: 1, Replica: 3, Prepared: []PreparedEntry{{Seq: 2, Block: mkBlock(2, 1)}}})
	nv, ok := tr.msgs[len(tr.msgs)-1].(*NewView)
	if !ok || len(nv.Reproposals) != 1 || nv.Reproposals[0].Seq != 2 {
		t.Fatalf("new leader sent %+v, want a NewView re-proposing the one certificate in reach", tr.msgs[len(tr.msgs)-1])
	}
	// A NewView is installed even if it re-proposes out of reach: only that
	// re-proposal is skipped. Installing clears the votes the view used up.
	nv.Reproposals = append(nv.Reproposals, &PrePrepare{View: 1, Seq: far, Block: mkBlock(far, 0)})
	if !e.Handle(1, nv) || e.View() != 1 || e.slots.get(2).block == nil || e.slots.get(far) != nil || vcVoteCount(e) != 0 {
		t.Fatalf("NewView with a far re-proposal: view %d, %d votes still booked", e.View(), vcVoteCount(e))
	}
	// Nor may it move the proposal cursor: no later view's fill would reach
	// it, and replica 1 could never propose on this instance again.
	if got := e.NextProposeSeq(); got != 3 {
		t.Fatalf("next proposal at %d after re-proposals 2 and 2^40, want 3", got)
	}
}

// TestLaggardBeyondReachFollowsViewsAndRejoins is the honest side of
// maxAhead: replica 3 is more than maxAhead blocks behind its peers. It
// refuses nothing they send, parks none of it, still books their
// view-change votes, joins them and installs the new view; once state
// transfer (SkipDelivered) has brought its cursor back in reach it votes and
// delivers like everyone else.
func TestLaggardBeyondReachFollowsViewsAndRejoins(t *testing.T) {
	h := newHarness(t, 4, 1, nil)
	const gap = maxAhead + 64
	refused := 0
	h.nw.Register(3, func(from int, msg any) {
		if !h.engines[3].Handle(from, msg.(Message)) {
			refused++
		}
	})
	for sn := uint64(0); sn < gap; sn++ {
		b := mkBlock(sn, 0)
		for i := 0; i < 3; i++ {
			if !h.engines[i].SkipDelivered(b) {
				t.Fatalf("replica %d: skip of SN %d rejected", i, sn)
			}
		}
	}
	if err := h.engines[0].Propose(mkBlock(gap, 1)); err != nil {
		t.Fatal(err)
	}
	h.sim.RunAll(0)
	for i := 0; i < 3; i++ {
		h.engines[i].Complain()
	}
	h.sim.RunAll(0)
	lag := h.engines[3]
	if len(h.delivered[0]) != gap+1 || lag.View() != 1 || lag.viewChanging {
		t.Fatalf("peers delivered %d blocks (want %d); laggard in view %d (want 1), view-changing %v",
			len(h.delivered[0]), gap+1, lag.View(), lag.viewChanging)
	}
	if refused != 0 || lag.Delivered() != 0 || len(lag.slots.ring) != 0 {
		t.Fatalf("laggard refused %d messages, delivered %d blocks, grew its ring to %d; want 0, 0, 0",
			refused, lag.Delivered(), len(lag.slots.ring))
	}
	// Catch-up replays the peers' log; the next proposal is live at all four.
	for _, b := range h.delivered[0] {
		if !lag.SkipDelivered(b) {
			t.Fatalf("laggard: skip of SN %d rejected", b.SN)
		}
	}
	if err := h.engines[1].Propose(mkBlock(gap+1, 1)); err != nil {
		t.Fatal(err)
	}
	h.sim.RunAll(0)
	for i, d := range h.delivered {
		if len(d) != gap+2 || d[gap+1].SN != gap+1 {
			t.Fatalf("replica %d delivered %d blocks after the laggard's repair, want %d", i, len(d), gap+2)
		}
	}
	if refused != 0 {
		t.Fatalf("laggard refused %d honest messages", refused)
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
	if s == nil || s.block == nil {
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
