package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/types"
)

// White-box tests for replica internals that are awkward to reach through
// the cluster-level integration tests.

func newBareReplica(t *testing.T, mode Mode) *Replica {
	t.Helper()
	return newBareReplicaM(t, mode, 4)
}

func newBareReplicaM(t *testing.T, mode Mode, m int) *Replica {
	t.Helper()
	sim := simnet.New(1)
	nw := simnet.NewNetwork(sim, 4, simnet.NewFixed(time.Millisecond), nil)
	cfg := Config{
		N: 4, F: 1, ID: 0, M: m,
		Mode: mode,
		Params: Params{
			BatchSize:    8,
			BatchTimeout: 10 * time.Millisecond,
		},
		Genesis: func(st *ledger.Store) {
			st.Credit("alice", 100)
			st.Credit("bob", 50)
		},
	}
	return NewReplica(cfg, simnet.On(sim, cfg.ID), nw)
}

func TestRouteOfSplitVsNoSplit(t *testing.T) {
	// Find two payers in different buckets.
	var p1, p2 types.Key
	p1 = "alice"
	for i := 0; ; i++ {
		p2 = types.Key(string(rune('a'+i%26)) + "payer")
		if partition.Assign(p1, 4) != partition.Assign(p2, 4) {
			break
		}
	}
	tx := types.NewMultiPayment(p1, []types.Transfer{
		{From: p1, To: "z", Amount: 1},
		{From: p2, To: "z", Amount: 1},
	}, 1)

	orthrus := newBareReplica(t, OrthrusMode())
	if got := orthrus.track(tx).route(); len(got) != 2 {
		t.Fatalf("split route = %v", got)
	}
	noSplit := OrthrusMode()
	noSplit.SplitMultiPayer = false
	base := newBareReplica(t, noSplit)
	if got := base.track(tx).route(); len(got) != 1 {
		t.Fatalf("no-split route = %v", got)
	}
}

// TestRouteOfManyPayerBuckets covers routes that outgrow the tracker's
// inline array: payers in six distinct buckets, listed in descending bucket
// order so the first-listed payer is not the route's head.
func TestRouteOfManyPayerBuckets(t *testing.T) {
	const m = 16
	var payers []types.Key
	var want []int32
	for b := m - 1; len(payers) < 6; b -= 2 {
		for i := 0; ; i++ {
			k := types.Key(fmt.Sprintf("payer-%d", i))
			if partition.Assign(k, m) == b {
				payers = append(payers, k)
				want = append([]int32{int32(b)}, want...)
				break
			}
		}
	}
	transfers := make([]types.Transfer, len(payers))
	for i, p := range payers {
		transfers[i] = types.Transfer{From: p, To: "z", Amount: 1}
	}
	tx := types.NewMultiPayment(payers[0], transfers, 1)

	got := newBareReplicaM(t, OrthrusMode(), m).track(tx).route()
	if !slices.Equal(got, want) {
		t.Fatalf("split route = %v, want %v", got, want)
	}
	noSplit := OrthrusMode()
	noSplit.SplitMultiPayer = false
	r := newBareReplicaM(t, noSplit, m)
	tr := r.track(tx)
	if got := tr.route(); len(got) != 1 || got[0] != want[0] {
		t.Fatalf("no-split route = %v, want the smallest bucket [%d]", got, want[0])
	}
	// The one route entry takes every payer leg, wherever its payer hashes.
	for i, op := range tx.Ops {
		if op.IsPayerOp() && r.legOf(tr, i) != int(want[0]) {
			t.Fatalf("payer %s (bucket %d) is not handled on the route's one entry %d", op.Key, partition.Assign(op.Key, m), want[0])
		}
	}
}

func TestRouteOfMintFallsBackToClient(t *testing.T) {
	r := newBareReplica(t, OrthrusMode())
	mint := &types.Transaction{Client: "faucet", Ops: []types.Op{
		{Key: "alice", Type: types.Owned, Kind: types.OpIncrement, Amount: 5},
	}}
	got := r.track(mint).route()
	if len(got) != 1 || int(got[0]) != partition.Assign("faucet", 4) {
		t.Fatalf("mint route = %v", got)
	}
}

func TestLegFeasibleTracksPromisedDebits(t *testing.T) {
	r := newBareReplica(t, OrthrusMode())
	inst := partition.Assign("alice", 4)
	tx1 := types.NewPayment("alice", "bob", 60, 1)
	tx2 := types.NewPayment("alice", "bob", 60, 2)
	if !r.legFeasible(tx1, r.track(tx1), inst) {
		t.Fatal("tx1 should be feasible (balance 100)")
	}
	r.promiseDebits(tx1, r.track(tx1), inst)
	if r.legFeasible(tx2, r.track(tx2), inst) {
		t.Fatal("tx2 feasible despite 60 already promised of 100")
	}
	// Releasing the promise (block executed) restores feasibility of the
	// *remaining* balance only; after the escrow the real balance governs.
	b := &types.Block{Instance: inst, Proposer: 0, Txs: []types.Transaction{*tx1}}
	r.releaseProposedDebits(delivered{b, r.refsOf(b)})
	if !r.legFeasible(tx2, r.track(tx2), inst) {
		t.Fatal("promise not released")
	}
}

func TestEpochDigestMatchesAcrossReplicas(t *testing.T) {
	mk := func() *Replica {
		sim := simnet.New(1)
		nw := simnet.NewNetwork(sim, 4, simnet.NewFixed(time.Millisecond), nil)
		cfg := Config{N: 4, F: 1, ID: 0, M: 4, Mode: OrthrusMode(), Params: Params{EpochLen: 1}}
		return NewReplica(cfg, simnet.On(sim, cfg.ID), nw)
	}
	a, b := mk(), mk()
	for i := 0; i < 4; i++ {
		blk := &types.Block{Instance: i, SN: 0, Rank: 1}
		a.onDeliver(i, blk)
		b.onDeliver(i, blk)
	}
	da, ok := a.localDigest(0)
	if !ok {
		t.Fatal("epoch 0 incomplete after delivering every instance")
	}
	if db, _ := b.localDigest(0); da != db {
		t.Fatal("epoch digests diverge on identical deliveries")
	}
	// The digest is canonical: running ahead past the boundary must not
	// change it (the old live-hash digest did, so replicas at different
	// run-ahead depths could never stabilize a WAN checkpoint).
	a.onDeliver(1, &types.Block{Instance: 1, SN: 1, Rank: 2})
	if d, _ := a.localDigest(0); d != da {
		t.Fatal("run-ahead past the boundary changed the epoch digest")
	}
	// A different block inside the epoch does change it.
	c := mk()
	for i := 0; i < 4; i++ {
		c.onDeliver(i, &types.Block{Instance: i, SN: 0, Rank: 7})
	}
	if dc, _ := c.localDigest(0); dc == da {
		t.Fatal("different blocks produced identical epoch digests")
	}
}

// epochReplica builds a 4-replica-cluster member with 1-block epochs, so a
// single delivery round per instance completes an epoch; rank parameterizes
// the delivered blocks so two replicas can diverge on purpose.
func epochReplica(t *testing.T) *Replica {
	t.Helper()
	sim := simnet.New(1)
	nw := simnet.NewNetwork(sim, 4, simnet.NewFixed(time.Millisecond), nil)
	cfg := Config{N: 4, F: 1, ID: 0, M: 4, Mode: OrthrusMode(),
		Params: Params{EpochLen: 1}}
	return NewReplica(cfg, simnet.On(sim, cfg.ID), nw)
}

func deliverEpoch0(r *Replica, rank uint64) {
	for i := 0; i < 4; i++ {
		r.onDeliver(i, &types.Block{Instance: i, SN: 0, Rank: rank})
	}
}

// TestCheckpointVoteSpamBounded pins the one-live-vote-per-replica bound on
// the checkpoint vote book: a faulty replica spamming far-future epoch
// numbers must never hold more than its one slot (the same bound PR 6 put
// on view-change votes), and votes citing another replica than their sender
// — nonexistent or not — must be rejected outright.
func TestCheckpointVoteSpamBounded(t *testing.T) {
	r := newBareReplica(t, OrthrusMode())
	live := func() int { return r.LiveSet().CkptVotes }
	epochs := func() int {
		seen := map[uint64]bool{}
		for _, v := range r.ckptVotes {
			if v.live {
				seen[v.epoch] = true
			}
		}
		return len(seen)
	}
	for e := uint64(0); e < 1000; e++ {
		r.handle(1, &CheckpointMsg{Epoch: e, Digest: [32]byte{1}, Replica: 1})
	}
	if got := live(); got != 1 {
		t.Fatalf("1000-epoch spam from one replica left %d live votes, want 1", got)
	}
	if got := epochs(); got != 1 {
		t.Fatalf("spam left %d epoch entries, want 1", got)
	}
	// A vote naming anyone but its sender must not touch any state.
	for _, forged := range []int{-1, 4, 2} {
		r.handle(1, &CheckpointMsg{Epoch: 5000, Digest: [32]byte{2}, Replica: forged})
	}
	if got := live(); got != 1 || r.ckptVotes[1].epoch != 999 || r.ckptVotes[2].live || r.Rejected() != 3 {
		t.Fatalf("forged replica ids changed the vote book: %d live votes, %d rejected", got, r.Rejected())
	}
	// Every replica spamming at once (distinct digests, so no quorum ever
	// forms) still holds at most one live vote each.
	for e := uint64(0); e < 1000; e++ {
		for rid := 0; rid < 4; rid++ {
			r.handle(rid, &CheckpointMsg{Epoch: e, Digest: [32]byte{byte(rid)}, Replica: rid})
		}
	}
	if got := live(); got > 4 {
		t.Fatalf("cluster-wide spam left %d live votes, want <= N=4", got)
	}
}

// TestCheckpointStabilizeRequiresLocalDigestMatch pins the GC safety rule: a
// replica must never stabilize (and garbage-collect) on a quorum digest its
// own boundary digest does not match — a diverged replica would discard
// exactly the state it needs to repair. The mismatch triggers a catch-up
// request instead.
func TestCheckpointStabilizeRequiresLocalDigestMatch(t *testing.T) {
	// The honest cluster's digest for epoch 0, from a twin that delivered
	// rank-1 blocks everywhere.
	honest := epochReplica(t)
	deliverEpoch0(honest, 1)
	quorumD, ok := honest.localDigest(0)
	if !ok {
		t.Fatal("twin's epoch 0 incomplete")
	}

	// The diverged replica delivered different (rank-7) blocks, so its local
	// digest disagrees with the quorum's. Seed a stale catch-up response to
	// observe requestStateTransfer clearing it.
	r := epochReplica(t)
	deliverEpoch0(r, 7)
	r.stResps[2] = &StateTransferResp{Replica: 2}
	for rid := 1; rid <= 3; rid++ {
		r.onCheckpoint(&CheckpointMsg{Epoch: 0, Digest: quorumD, Replica: rid})
	}
	if _, stable := r.Epoch(); stable != 0 {
		t.Fatal("diverged replica stabilized a checkpoint on the quorum's say-so")
	}
	if !r.pend.live || r.pend.epoch != 0 || r.pend.digest != quorumD {
		t.Fatal("mismatched quorum not recorded as pending")
	}
	if r.stResps[2] != nil {
		t.Fatal("complete-but-mismatched digest did not request state transfer")
	}

	// The matching replica stabilizes from the same votes.
	m := epochReplica(t)
	deliverEpoch0(m, 1)
	for rid := 1; rid <= 3; rid++ {
		m.onCheckpoint(&CheckpointMsg{Epoch: 0, Digest: quorumD, Replica: rid})
	}
	if _, stable := m.Epoch(); stable != 1 {
		t.Fatalf("matching replica did not stabilize (stable=%d)", stable)
	}
}

// TestAdoptCertPicksHighestAgreed: of the certs f+1 responders share, the
// highest is adopted, whatever order the responders come in; a cert whose
// digest does not commit to its own boundary vector vouches for nothing.
func TestAdoptCertPicksHighestAgreed(t *testing.T) {
	cert := func(stable uint64, seed byte) CheckpointCert {
		bd := make([][32]byte, 4)
		bd[0][0] = seed
		return CheckpointCert{Stable: stable, Digest: boundDigest(bd), Bound: bd}
	}
	forged := cert(9, 9)
	forged.Digest[0] ^= 1
	for name, tc := range map[string]struct {
		certs [4]CheckpointCert
		want  uint64 // the adopted cert's Stable; 0 = none
	}{
		"higher pair last":     {[4]CheckpointCert{cert(1, 1), cert(1, 1), cert(2, 2), cert(2, 2)}, 2},
		"higher pair first":    {[4]CheckpointCert{cert(2, 2), cert(1, 1), cert(2, 2), cert(1, 1)}, 2},
		"highest not shared":   {[4]CheckpointCert{cert(3, 3), cert(1, 1), cert(2, 2), cert(1, 1)}, 1},
		"same height, two say": {[4]CheckpointCert{cert(2, 5), cert(2, 6), cert(2, 7), cert(2, 6)}, 2},
		"forged pair":          {[4]CheckpointCert{forged, forged, cert(1, 1), cert(1, 1)}, 1},
		"nothing shared":       {[4]CheckpointCert{cert(1, 1), cert(2, 2), cert(3, 3), {}}, 0},
	} {
		r := epochReplica(t)
		for rid, c := range tc.certs {
			r.stResps[rid] = &StateTransferResp{Replica: rid, Cert: c}
		}
		r.adoptCert()
		// The local log is empty, so the adopted cert lands in pend.
		switch {
		case tc.want == 0 && r.pend.live:
			t.Fatalf("%s: adopted a cert for epoch %d, want none", name, r.pend.epoch)
		case tc.want != 0 && (!r.pend.live || r.pend.epoch != tc.want-1):
			t.Fatalf("%s: pending %+v, want the cert with Stable %d", name, r.pend, tc.want)
		case name == "same height, two say" && r.pend.digest != tc.certs[1].Digest:
			t.Fatalf("%s: adopted a digest only one responder vouched for", name)
		}
	}
}

func TestGlogHeadBlockingPreservesOrder(t *testing.T) {
	// Two contract transactions confirmed in global order; the first's
	// escrow phase is incomplete, so neither may execute until it is ready,
	// and then both run in order.
	r := newBareReplica(t, OrthrusMode())
	con1 := types.NewContractCall("alice", []types.Key{"alice"}, 1,
		[]types.Op{types.NewSharedAssign("rec", 1)}, 1)
	con2 := types.NewContractCall("bob", []types.Key{"bob"}, 1,
		[]types.Op{types.NewSharedAssign("rec", 2)}, 2)
	inst1 := partition.Assign("alice", 4)
	// Track both transactions; only con2's escrow phase has run.
	t1, t2 := r.track(con1), r.track(con2)
	inst2 := int(t2.route()[0])
	r.escrowLegs(t2, con2, inst2)

	r.enqueueGlobal([]*types.Block{
		{Instance: inst1, Txs: []types.Transaction{*con1}},
		{Instance: inst2, Txs: []types.Transaction{*con2}},
	})
	r.drainGlogQueue()
	if t1.done || t2.done {
		t.Fatal("execution overtook an unready glog head")
	}
	// Complete con1's escrow phase; both must now execute in order, leaving
	// rec = 2 (con2 last).
	r.escrowLegs(t1, con1, inst1)
	r.drainGlogQueue()
	if !t1.done || !t2.done {
		t.Fatal("glog queue did not drain after head became ready")
	}
	if v := r.store.SharedValue("rec"); v != 2 {
		t.Fatalf("rec = %d, want 2 (global order violated)", v)
	}
}

func TestByzantinePulseInterval(t *testing.T) {
	sim := simnet.New(1)
	nw := simnet.NewNetwork(sim, 4, simnet.NewFixed(time.Millisecond), nil)
	cfg := Config{N: 4, F: 1, ID: 2, M: 4, Mode: OrthrusMode(),
		Params:        Params{BatchTimeout: 10 * time.Millisecond, ViewTimeout: time.Second},
		ByzantineMute: true}
	r := NewReplica(cfg, simnet.On(sim, cfg.ID), nw)
	r.Start()
	// Over 2 virtual seconds a Byzantine replica proposing at 0.8x the
	// view timeout makes at most ~3 proposals in its own instance, versus
	// ~200 pulses for an honest one.
	sim.Run(simnet.Time(2 * time.Second))
	if sn := r.sbs[2].NextProposeSeq(); sn > 4 {
		t.Fatalf("Byzantine replica proposed %d blocks in 2s; should crawl", sn)
	}
}

func TestTrackerWideInstanceSets(t *testing.T) {
	// Routes longer than 64 positions (a transaction with >64 distinct
	// payer buckets at large m) must track escrow progress exactly; the
	// inline word overflows into escrowedHi.
	for _, width := range []int{1, 2, 63, 64, 65, 100, 128} {
		tr := &txTracker{wide: &wideRoute{route: make([]int32, width)}, n: int32(width)}
		for i := range tr.wide.route {
			tr.wide.route[i] = int32(i * 3) // arbitrary distinct instance ids
		}
		for i, r := range tr.route() {
			inst := int(r)
			if tr.escrowed(inst) {
				t.Fatalf("width %d: position %d escrowed before marking", width, i)
			}
			tr.markEscrowed(inst)
			if !tr.escrowed(inst) {
				t.Fatalf("width %d: position %d not escrowed after marking", width, i)
			}
			if got := tr.escrowedCount(); got != i+1 {
				t.Fatalf("width %d: escrowedCount = %d after %d marks", width, got, i+1)
			}
		}
		if tr.escrowedCount() != width {
			t.Fatalf("width %d: tracker not ready with every instance escrowed", width)
		}
		tr.markEscrowed(int(tr.route()[0])) // idempotent
		if got := tr.escrowedCount(); got != width {
			t.Fatalf("width %d: re-mark changed count to %d", width, got)
		}
	}
}
