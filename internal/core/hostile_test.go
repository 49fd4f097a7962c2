package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pbft"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/wire"
)

// hostileCluster is a started 4-replica Orthrus cluster (f = 1, state
// transfer on) whose registered handlers the test can call directly, with
// any sender it likes — what a transport does after decoding a frame.
type hostileCluster struct {
	sim       *simnet.Sim
	replicas  []*core.Replica
	handlers  []types.Handler
	delivered int // SB deliveries, all replicas
}

// tapNetwork keeps the handlers the replicas register.
type tapNetwork struct {
	*simnet.Network
	handlers []types.Handler
}

func (t *tapNetwork) Register(id int, h types.Handler) {
	t.handlers[id] = h
	t.Network.Register(id, h)
}

func newHostileCluster(t *testing.T) *hostileCluster {
	t.Helper()
	const n = 4
	c := &hostileCluster{sim: simnet.New(1)}
	nw := &tapNetwork{
		Network:  simnet.NewNetwork(c.sim, n, simnet.NewFixed(5*time.Millisecond), nil),
		handlers: make([]types.Handler, n),
	}
	for i := 0; i < n; i++ {
		c.replicas = append(c.replicas, core.NewReplica(core.Config{
			N: n, F: 1, ID: i, M: n, Mode: core.OrthrusMode(),
			Params: core.Params{BatchTimeout: time.Hour, ViewTimeout: 24 * time.Hour,
				EpochLen: 4},
			Genesis:        genesisRich("alice", "bob"),
			OnBlockDeliver: func(int, *types.Block) { c.delivered++ },
		}, simnet.On(c.sim, i), nw))
	}
	for _, r := range c.replicas {
		r.Start()
	}
	c.handlers = nw.handlers
	return c
}

// inject delivers msg to replica `to` the way a real transport would: the
// message crosses the codec, the sender is whatever the transport says.
func (c *hostileCluster) inject(t *testing.T, from, to int, msg any) {
	t.Helper()
	frame, err := wire.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	c.injectFrame(t, from, to, frame)
}

func (c *hostileCluster) injectFrame(t *testing.T, from, to int, frame []byte) {
	t.Helper()
	msg, err := wire.Decode(frame)
	if err != nil {
		t.Fatalf("hostile frame % x does not decode (%v): it would never reach a replica", frame, err)
	}
	c.handlers[to](from, msg)
}

// requireHarmless lets whatever the injected messages set in motion play
// out (well short of the pulse and view timeouts, so the cluster itself
// does nothing) and asserts the victim counted want rejections and nothing
// else happened anywhere: no delivery, no state, no epoch, no view.
func (c *hostileCluster) requireHarmless(t *testing.T, victim int, want uint64) {
	t.Helper()
	c.sim.Run(c.sim.Now() + simnet.Time(time.Second))
	if got := c.replicas[victim].Rejected(); got != want {
		t.Fatalf("replica %d rejected %d messages, want %d", victim, got, want)
	}
	if c.delivered != 0 {
		t.Fatalf("%d blocks delivered off hostile input", c.delivered)
	}
	for i, r := range c.replicas {
		for inst, sn := range r.State() {
			if sn != 0 {
				t.Fatalf("replica %d state[%d] = %d after hostile input", i, inst, sn)
			}
		}
		if cur, stable := r.Epoch(); cur != 0 || stable != 0 {
			t.Fatalf("replica %d epoch (%d, %d) after hostile input", i, cur, stable)
		}
		for inst, sb := range r.SBs() {
			if sb.View() != 0 {
				t.Fatalf("replica %d instance %d moved to view %d after hostile input", i, inst, sb.View())
			}
		}
	}
}

// TestHostileMessagesRejected is the survival property: each message below
// is something a Byzantine peer (or any socket, on TCP) can put on the wire
// and that panicked the receiving replica (or, the far-future sequence
// numbers, exhausted its memory) before the sender rule, the slot check and
// maxAhead. Every one must be dropped whole, counted, and change nothing.
// The victim is replica 1: a backup of instance 0 in view 0 (leader 0) and
// its leader-to-be in view 1.
func TestHostileMessagesRejected(t *testing.T) {
	const victim = 1
	block := func(instance int, sn uint64) *types.Block {
		return &types.Block{Instance: instance, SN: sn, Rank: 1, State: make(types.StateVector, 4)}
	}
	type delivery struct {
		from int
		msg  any
	}
	cases := []struct {
		name string
		msgs []delivery
	}{
		{"prepare naming replica 99", []delivery{{3, &pbft.Prepare{Replica: 99}}}},
		{"commit naming replica -1", []delivery{{3, &pbft.Commit{Replica: -1}}}},
		{"nil-block proposal from the leader", []delivery{{0, &pbft.PrePrepare{}}}},
		{"nil-block re-proposal in a NewView", []delivery{
			// Instance 1's view 1 is led by replica 2.
			{2, &pbft.NewView{Instance: 1, View: 1, Reproposals: []*pbft.PrePrepare{{Instance: 1, View: 1}}}}}},
		{"quorum of view changes with a nil prepared block", func() (out []delivery) {
			for _, from := range []int{0, 2, 3} {
				out = append(out, delivery{from, &pbft.ViewChange{NewView: 1, Replica: from,
					Prepared: []pbft.PreparedEntry{{Seq: 0}}}})
			}
			return out
		}()},
		{"proposal whose block names another instance", []delivery{{0, &pbft.PrePrepare{Block: block(9, 0)}}}},
		{"proposal whose block names another sequence number", []delivery{{0, &pbft.PrePrepare{Block: block(0, 7)}}}},
		{"prepared certificate for another slot", []delivery{{3, &pbft.ViewChange{NewView: 1, Replica: 3,
			Prepared: []pbft.PreparedEntry{{Seq: 0, Block: block(0, 1)}}}}}},
		{"state-transfer runs headed by a nil block", func() (out []delivery) {
			for _, from := range []int{0, 2, 3} {
				out = append(out, delivery{from, &core.StateTransferResp{Replica: from,
					Runs: []core.BlockRun{{Instance: 0, Blocks: []*types.Block{nil, block(0, 1)}}}}})
			}
			return out
		}()},
		{"state-transfer request with a short state vector", []delivery{
			{3, &core.StateTransferReq{Replica: 3, State: types.StateVector{1}}}}},
		{"checkpoint naming another replica", []delivery{{3, &core.CheckpointMsg{Replica: 0}}}},
		{"state-transfer request naming another replica", []delivery{
			{3, &core.StateTransferReq{Replica: 2, State: make(types.StateVector, 4)}}}},
		{"state-transfer answer naming another replica", []delivery{{3, &core.StateTransferResp{Replica: 2}}}},
		{"vote from a client", []delivery{{4, &pbft.Prepare{Replica: 4}}, {-1, &pbft.Commit{Replica: -1}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newHostileCluster(t)
			for _, d := range tc.msgs {
				c.inject(t, d.from, victim, d.msg)
			}
			c.requireHarmless(t, victim, uint64(len(tc.msgs)))
		})
	}
	// Not refused — a replica far ahead of this one sends the like honestly —
	// but it must size nothing: these exhausted the victim's memory before.
	t.Run("sequence numbers out of reach", func(t *testing.T) {
		c := newHostileCluster(t)
		for _, d := range []delivery{
			{3, &pbft.Prepare{Seq: 1 << 62, Replica: 3}}, {3, &pbft.Commit{Seq: 1 << 62, Replica: 3}},
			{0, &pbft.PrePrepare{Seq: 1 << 40, Block: block(0, 1<<40)}},
			{3, &pbft.ViewChange{NewView: 1, Replica: 3, Delivered: 1 << 50}},
		} {
			c.inject(t, d.from, victim, d.msg)
		}
		c.requireHarmless(t, victim, 0)
	})
	t.Run("submission without a transaction", func(t *testing.T) {
		c := newHostileCluster(t)
		c.injectFrame(t, 4, victim, []byte{0x07, 0x00})
		c.requireHarmless(t, victim, 1)
	})
}

// TestHostileLeaderCannotMisfileABlock: a Byzantine leader proposes, to
// everyone, a block that says a different (instance, sequence number) than
// the slot it is proposed for. Delivery believes a block's own fields — the
// state vector is set from b.SN, the global ordering indexes by b.Instance
// — so agreeing on it would corrupt or crash every honest replica at once.
func TestHostileLeaderCannotMisfileABlock(t *testing.T) {
	for _, b := range []*types.Block{
		{Instance: 9, SN: 0, Rank: 1, State: make(types.StateVector, 4)},
		{Instance: 0, SN: 1 << 40, Rank: 1, State: make(types.StateVector, 4)},
	} {
		c := newHostileCluster(t)
		for to := 1; to < 4; to++ {
			c.inject(t, 0, to, &pbft.PrePrepare{Instance: 0, Seq: 0, Block: b})
		}
		for to := 1; to < 4; to++ {
			c.requireHarmless(t, to, 1)
		}
	}
}

// TestForgedQuorumDoesNotDeliverAtReplica: replica 3, leader of instance 3,
// sends replica 1 its proposal and then a full set of prepares and commits
// in everyone's name. One sender is one vote, whatever the votes say.
func TestForgedQuorumDoesNotDeliverAtReplica(t *testing.T) {
	c := newHostileCluster(t)
	b := &types.Block{Instance: 3, SN: 0, Rank: 1, State: make(types.StateVector, 4)}
	c.inject(t, 3, 1, &pbft.PrePrepare{Instance: 3, Block: b})
	for name := 0; name < 4; name++ {
		c.inject(t, 3, 1, &pbft.Prepare{Instance: 3, Digest: b.Digest(), Replica: name})
	}
	for name := 0; name < 4; name++ {
		c.inject(t, 3, 1, &pbft.Commit{Instance: 3, Digest: b.Digest(), Replica: name})
	}
	// The honest half of that traffic stands: replica 1 holds the proposal
	// and answered it, so the slot is in flight — at replica 1 only.
	if got := c.replicas[1].Rejected(); got != 6 {
		t.Fatalf("replica 1 rejected %d messages, want the 6 votes in other replicas' names", got)
	}
	c.sim.Run(c.sim.Now() + simnet.Time(time.Second))
	if c.delivered != 0 || c.replicas[1].State()[3] != 0 {
		t.Fatalf("a quorum forged by one sender delivered (%d deliveries)", c.delivered)
	}
}

// TestClientMaySubmitButNotVote pins the one thing a sender outside the
// replica group may do.
func TestClientMaySubmitButNotVote(t *testing.T) {
	c := newHostileCluster(t)
	const client = 4 // = N, what the real harness injects as
	c.inject(t, client, 1, &core.SubmitMsg{Tx: types.NewPayment("alice", "bob", 1, 1)})
	if got := c.replicas[1].Rejected(); got != 0 {
		t.Fatalf("a client's valid submission was rejected (%d)", got)
	}
	if got := c.replicas[1].LiveSet().Trackers; got != 1 {
		t.Fatalf("submission not queued: %d live trackers, want 1", got)
	}
	c.inject(t, client, 1, &core.CheckpointMsg{Replica: client})
	c.inject(t, client, 1, &core.SubmitMsg{Tx: &types.Transaction{}}) // fails Validate
	if got := c.replicas[1].Rejected(); got != 2 {
		t.Fatalf("replica 1 rejected %d messages, want 2 (a client's checkpoint vote, an invalid transaction)", got)
	}
}
