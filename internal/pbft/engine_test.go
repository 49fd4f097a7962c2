package pbft

import (
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/types"
)

// harness wires n engines of one SB instance over a simulated network.
type harness struct {
	sim       *simnet.Sim
	nw        *simnet.Network
	engines   []*Engine
	delivered [][]*types.Block
}

// newEngine is New for tests that leave the engine knobs alone: it fills the
// two New expects resolved with the values production callers pass (the
// defaults of core.Params, restated here because pbft cannot import core).
func newEngine(cfg Config, nw types.Network, clk types.Clock) *Engine {
	if cfg.Window == 0 {
		cfg.Window = 4
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 10 * time.Second
	}
	return New(cfg, nw, clk)
}

func newHarness(t *testing.T, n, f int, mutate func(i int, cfg *Config)) *harness {
	t.Helper()
	h := &harness{sim: simnet.New(42)}
	h.nw = simnet.NewNetwork(h.sim, n, simnet.NewFixed(5*time.Millisecond), nil)
	h.delivered = make([][]*types.Block, n)
	h.engines = make([]*Engine, n)
	for i := 0; i < n; i++ {
		i := i
		cfg := Config{
			N: n, F: f, ID: i, Instance: 0,
			Timeout: 500 * time.Millisecond,
			OnDeliver: func(b *types.Block) {
				h.delivered[i] = append(h.delivered[i], b)
			},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		h.engines[i] = newEngine(cfg, h.nw, simnet.On(h.sim, i))
		h.nw.Register(i, func(from int, msg any) {
			h.engines[i].Handle(from, msg.(Message))
		})
	}
	return h
}

func mkBlock(sn uint64, ntx int) *types.Block {
	b := &types.Block{Instance: 0, SN: sn}
	for j := 0; j < ntx; j++ {
		b.Txs = append(b.Txs, *types.NewPayment("alice", "bob", 1, sn*100+uint64(j)))
	}
	return b
}

func TestNormalCaseDelivery(t *testing.T) {
	h := newHarness(t, 4, 1, nil)
	if err := h.engines[0].Propose(mkBlock(0, 3)); err != nil {
		t.Fatal(err)
	}
	h.sim.RunAll(0)
	for i, d := range h.delivered {
		if len(d) != 1 {
			t.Fatalf("replica %d delivered %d blocks, want 1", i, len(d))
		}
		if d[0].Digest() != h.delivered[0][0].Digest() {
			t.Fatalf("replica %d delivered a different block", i)
		}
		if len(d[0].Txs) != 3 {
			t.Fatalf("replica %d block has %d txs", i, len(d[0].Txs))
		}
	}
}

func TestOnlyLeaderMayPropose(t *testing.T) {
	h := newHarness(t, 4, 1, nil)
	if err := h.engines[1].Propose(mkBlock(0, 1)); err == nil {
		t.Fatal("backup proposal accepted")
	}
}

func TestPipelinedInOrderDelivery(t *testing.T) {
	h := newHarness(t, 4, 1, nil)
	for sn := uint64(0); sn < 4; sn++ {
		if err := h.engines[0].Propose(mkBlock(sn, 1)); err != nil {
			t.Fatalf("propose %d: %v", sn, err)
		}
	}
	h.sim.RunAll(0)
	for i, d := range h.delivered {
		if len(d) != 4 {
			t.Fatalf("replica %d delivered %d", i, len(d))
		}
		for sn, b := range d {
			if b.SN != uint64(sn) {
				t.Fatalf("replica %d delivered SN %d at position %d", i, b.SN, sn)
			}
		}
	}
}

func TestWindowLimitsPipelining(t *testing.T) {
	h := newHarness(t, 4, 1, func(i int, cfg *Config) { cfg.Window = 2 })
	if err := h.engines[0].Propose(mkBlock(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := h.engines[0].Propose(mkBlock(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := h.engines[0].Propose(mkBlock(2, 1)); err == nil {
		t.Fatal("window overrun accepted")
	}
	h.sim.RunAll(0)
	if !h.engines[0].CanPropose() {
		t.Fatal("cannot propose after window drains")
	}
}

func TestAgreementUnderWANJitter(t *testing.T) {
	sim := simnet.New(7)
	nw := simnet.NewNetwork(sim, 4, simnet.NewWAN(), nil)
	delivered := make([][]*types.Block, 4)
	engines := make([]*Engine, 4)
	for i := 0; i < 4; i++ {
		i := i
		cfg := Config{N: 4, F: 1, ID: i, Instance: 0, Timeout: 10 * time.Second,
			OnDeliver: func(b *types.Block) { delivered[i] = append(delivered[i], b) }}
		engines[i] = newEngine(cfg, nw, simnet.On(sim, i))
		nw.Register(i, func(from int, msg any) { engines[i].Handle(from, msg.(Message)) })
	}
	for sn := uint64(0); sn < 3; sn++ {
		sn := sn
		sim.After(time.Duration(sn)*100*time.Millisecond, func() {
			if err := engines[0].Propose(mkBlock(sn, 2)); err != nil {
				t.Errorf("propose %d: %v", sn, err)
			}
		})
	}
	sim.RunAll(0)
	for i := 1; i < 4; i++ {
		if len(delivered[i]) != len(delivered[0]) {
			t.Fatalf("replica %d delivered %d vs %d", i, len(delivered[i]), len(delivered[0]))
		}
		for j := range delivered[i] {
			if delivered[i][j].Digest() != delivered[0][j].Digest() {
				t.Fatalf("replica %d position %d disagrees", i, j)
			}
		}
	}
}

func TestViewChangeOnCrashedLeader(t *testing.T) {
	// Use a generous timeout so exactly one view change happens inside the
	// observation window before the new leader resumes proposing (which is
	// what the replica layer does through its proposal pulses).
	h := newHarness(t, 4, 1, func(i int, cfg *Config) { cfg.Timeout = 2 * time.Second })
	// Everyone expects one block, but the leader (replica 0) is down.
	h.nw.SetDown(0, true)
	var newViews []uint64
	for i := 1; i < 4; i++ {
		i := i
		h.engines[i].cfg.OnViewChange = func(view uint64, leader int) {
			if i == 1 {
				newViews = append(newViews, view)
			}
		}
		h.engines[i].SetTarget(1)
	}
	h.sim.Run(simnet.Time(3 * time.Second))
	// After the view change, view 1's leader is replica 1.
	for i := 1; i < 4; i++ {
		if h.engines[i].View() != 1 {
			t.Fatalf("replica %d in view %d, want 1", i, h.engines[i].View())
		}
	}
	if len(newViews) == 0 || newViews[0] != 1 {
		t.Fatalf("OnViewChange views = %v", newViews)
	}
	// The new leader proposes the outstanding sequence number; everyone
	// delivers it, the delivery target is met, and the system quiesces.
	if !h.engines[1].IsLeader() || !h.engines[1].CanPropose() {
		t.Fatal("replica 1 cannot propose in view 1")
	}
	sn := h.engines[1].NextProposeSeq()
	if err := h.engines[1].Propose(mkBlock(sn, 1)); err != nil {
		t.Fatal(err)
	}
	h.sim.RunAll(0) // terminates: target met stops all timers
	for i := 1; i < 4; i++ {
		if len(h.delivered[i]) != 1 {
			t.Fatalf("replica %d delivered %d blocks after recovery", i, len(h.delivered[i]))
		}
		if len(h.delivered[i][0].Txs) != 1 {
			t.Fatalf("replica %d delivered wrong block", i)
		}
	}
}

func TestDeliveredBlockSurvivesLeaderCrash(t *testing.T) {
	h := newHarness(t, 4, 1, nil)
	if err := h.engines[0].Propose(mkBlock(0, 2)); err != nil {
		t.Fatal(err)
	}
	// Crash the leader right after its broadcast is in flight: the block
	// still commits (3 of 4 replicas form a quorum of 3).
	h.nw.SetDown(0, true)
	for i := 1; i < 4; i++ {
		h.engines[i].SetTarget(1)
	}
	h.sim.RunAll(0)
	for i := 1; i < 4; i++ {
		if len(h.delivered[i]) != 1 {
			t.Fatalf("replica %d delivered %d", i, len(h.delivered[i]))
		}
		if len(h.delivered[i][0].Txs) != 2 {
			t.Fatalf("replica %d delivered noop instead of proposed block", i)
		}
	}
}

func TestEscalatingViewChangeSkipsCrashedLeaders(t *testing.T) {
	// Replicas 0 and 1 are down in a 7-replica group (f=2): the view must
	// advance past both (view 1's leader, replica 1, is also dead) until
	// replica 2 leads, after which it can propose and meet the target.
	h := newHarness(t, 7, 2, func(i int, cfg *Config) { cfg.Timeout = time.Second })
	h.nw.SetDown(0, true)
	h.nw.SetDown(1, true)
	for i := 2; i < 7; i++ {
		h.engines[i].SetTarget(1)
	}
	// First change at ~1 s (to view 1, dead leader), escalation at ~+2 s
	// (doubled timeout) installs view 2.
	h.sim.Run(simnet.Time(5 * time.Second))
	for i := 2; i < 7; i++ {
		if h.engines[i].View() != 2 {
			t.Fatalf("replica %d view = %d, want 2", i, h.engines[i].View())
		}
	}
	if !h.engines[2].IsLeader() || !h.engines[2].CanPropose() {
		t.Fatal("replica 2 cannot propose in view 2")
	}
	if err := h.engines[2].Propose(mkBlock(h.engines[2].NextProposeSeq(), 1)); err != nil {
		t.Fatal(err)
	}
	h.sim.RunAll(0)
	for i := 2; i < 7; i++ {
		if len(h.delivered[i]) != 1 {
			t.Fatalf("replica %d delivered %d", i, len(h.delivered[i]))
		}
	}
}

func TestMutedReplicaDoesNotBlockConsensus(t *testing.T) {
	// n=4 f=1: one muted (Byzantine selective-participation) backup leaves
	// exactly a quorum of 3 voters.
	h := newHarness(t, 4, 1, func(i int, cfg *Config) {
		if i == 3 {
			cfg.Mute = true
		}
	})
	if err := h.engines[0].Propose(mkBlock(0, 1)); err != nil {
		t.Fatal(err)
	}
	h.sim.RunAll(0)
	for i := 0; i < 3; i++ {
		if len(h.delivered[i]) != 1 {
			t.Fatalf("replica %d delivered %d", i, len(h.delivered[i]))
		}
	}
	// The muted replica still delivers (it observes others' votes).
	if len(h.delivered[3]) != 1 {
		t.Fatalf("muted replica delivered %d", len(h.delivered[3]))
	}
}

func TestNonLeaderPrePrepareIgnored(t *testing.T) {
	h := newHarness(t, 4, 1, nil)
	// Replica 2 forges a pre-prepare; nobody should deliver it.
	forged := &PrePrepare{Instance: 0, View: 0, Seq: 0, Block: mkBlock(0, 1)}
	h.nw.Broadcast(2, Message(forged))
	h.sim.RunAll(0)
	for i, d := range h.delivered {
		if len(d) != 0 {
			t.Fatalf("replica %d delivered forged block", i)
		}
	}
}

func TestDuplicateVotesNotDoubleCounted(t *testing.T) {
	h := newHarness(t, 4, 1, nil)
	// Hand-craft duplicate prepares from one replica; they must count once.
	e := h.engines[0]
	b := mkBlock(0, 1)
	e.Handle(0, &PrePrepare{Instance: 0, View: 0, Seq: 0, Block: b})
	d := b.Digest()
	for i := 0; i < 5; i++ {
		e.Handle(1, &Prepare{Instance: 0, View: 0, Seq: 0, Digest: d, Replica: 1})
	}
	e.Handle(2, &Prepare{Instance: 0, View: 0, Seq: 0, Digest: d, Replica: 2})
	// Two distinct voters (the engine's own network prepare is still in
	// flight in this unit test) are below the quorum of three no matter
	// how many duplicates replica 1 sent.
	if e.slots.get(0).prepared {
		t.Fatal("slot prepared from duplicate votes")
	}
	e.Handle(3, &Prepare{Instance: 0, View: 0, Seq: 0, Digest: d, Replica: 3})
	if !e.slots.get(0).prepared {
		t.Fatal("slot not prepared with quorum of distinct votes")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []types.BlockID {
		sim := simnet.New(11)
		nw := simnet.NewNetwork(sim, 4, simnet.NewWAN(), nil)
		var ids []types.BlockID
		engines := make([]*Engine, 4)
		for i := 0; i < 4; i++ {
			i := i
			cfg := Config{N: 4, F: 1, ID: i, Instance: 0, Timeout: 5 * time.Second,
				OnDeliver: func(b *types.Block) {
					if i == 2 {
						ids = append(ids, b.Digest())
					}
				}}
			engines[i] = newEngine(cfg, nw, simnet.On(sim, i))
			nw.Register(i, func(from int, msg any) { engines[i].Handle(from, msg.(Message)) })
		}
		for sn := uint64(0); sn < 3; sn++ {
			if err := engines[0].Propose(mkBlock(sn, 1)); err != nil {
				t.Fatal(err)
			}
		}
		sim.RunAll(0)
		return ids
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d", i)
		}
	}
}

func TestStoppedEngineIgnoresEverything(t *testing.T) {
	h := newHarness(t, 4, 1, nil)
	h.engines[1].Stop()
	if err := h.engines[0].Propose(mkBlock(0, 1)); err != nil {
		t.Fatal(err)
	}
	h.sim.RunAll(0)
	if len(h.delivered[1]) != 0 {
		t.Fatal("stopped engine delivered")
	}
	// Others still deliver: 3 of 4 is a quorum.
	if len(h.delivered[0]) != 1 {
		t.Fatal("live replicas failed to deliver")
	}
}

func TestLeaderRotationPerInstance(t *testing.T) {
	cfg := Config{N: 4, F: 1, Instance: 2}
	if cfg.LeaderOf(0) != 2 || cfg.LeaderOf(1) != 3 || cfg.LeaderOf(2) != 0 {
		t.Fatal("leader rotation wrong")
	}
}
