package sb

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pbft"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/wire"
)

// resolved holds the engine knobs as production callers hand them to both
// SB implementations: NewInstance and pbft.New apply no defaults.
var resolved = core.Params{}.WithDefaults()

// modeled is the size function cluster.Run builds its network with.
func modeled(msg any) int { return wire.ModeledSize(msg, resolved.TxSize) }

// newInstance is NewInstance with the knobs a test left zero resolved.
func newInstance(cfg Config, sim *simnet.Sim, nw *simnet.Network) *Instance {
	if cfg.Window == 0 {
		cfg.Window = resolved.Window
	}
	if cfg.TxSize == 0 {
		cfg.TxSize = resolved.TxSize
	}
	return NewInstance(cfg, sim, nw)
}

func mkBlock(instance int, sn uint64, ntx int) *types.Block {
	b := &types.Block{Instance: instance, SN: sn}
	for j := 0; j < ntx; j++ {
		b.Txs = append(b.Txs, *types.NewPayment("alice", "bob", 1, sn*1000+uint64(j)))
	}
	return b
}

func TestAnalyticDeliversInOrderToAll(t *testing.T) {
	sim := simnet.New(1)
	nw := simnet.NewNetwork(sim, 4, simnet.NewFixed(10*time.Millisecond), nil)
	inst := newInstance(Config{N: 4, F: 1, Instance: 0}, sim, nw)
	got := make([][]uint64, 4)
	ports := make([]*Port, 4)
	for i := 0; i < 4; i++ {
		i := i
		ports[i] = inst.Port(i, func(b *types.Block) { got[i] = append(got[i], b.SN) })
	}
	for sn := uint64(0); sn < 3; sn++ {
		if err := ports[0].Propose(mkBlock(0, sn, 2)); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunAll(0)
	for i, seq := range got {
		if len(seq) != 3 {
			t.Fatalf("replica %d delivered %d", i, len(seq))
		}
		for sn, v := range seq {
			if v != uint64(sn) {
				t.Fatalf("replica %d out of order: %v", i, seq)
			}
		}
	}
}

func TestAnalyticOnlyLeaderProposes(t *testing.T) {
	sim := simnet.New(1)
	nw := simnet.NewNetwork(sim, 4, simnet.NewFixed(time.Millisecond), nil)
	inst := newInstance(Config{N: 4, F: 1, Instance: 2}, sim, nw)
	p0 := inst.Port(0, func(*types.Block) {})
	p2 := inst.Port(2, func(*types.Block) {})
	if p0.IsLeader() || !p2.IsLeader() {
		t.Fatal("instance 2 must be led by replica 2")
	}
	if err := p0.Propose(mkBlock(2, 0, 0)); err == nil {
		t.Fatal("non-leader proposal accepted")
	}
	if err := p2.Propose(mkBlock(2, 0, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyticWindowBackpressure(t *testing.T) {
	sim := simnet.New(1)
	nw := simnet.NewNetwork(sim, 4, simnet.NewFixed(time.Millisecond), nil)
	inst := newInstance(Config{N: 4, F: 1, Instance: 0, Window: 2}, sim, nw)
	var p *Port
	for i := 0; i < 4; i++ {
		port := inst.Port(i, func(*types.Block) {})
		if i == 0 {
			p = port
		}
	}
	if err := p.Propose(mkBlock(0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Propose(mkBlock(0, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if p.CanPropose() {
		t.Fatal("window overrun allowed")
	}
	sim.RunAll(0)
	if !p.CanPropose() {
		t.Fatal("window did not drain after delivery")
	}
}

// TestAnalyticMatchesMessageLevelPBFT is the validation behind
// ARCHITECTURE.md's "Data flow of one run", step 1, which swaps the
// analytic SB in for large n: with the same deterministic latency model,
// the analytic delivery times must equal message-level PBFT's delivery
// times exactly.
func TestAnalyticMatchesMessageLevelPBFT(t *testing.T) {
	const n, f = 7, 2
	model := simnet.NewFixed(15 * time.Millisecond)

	// Message-level PBFT run.
	simA := simnet.New(1)
	nwA := simnet.NewNetwork(simA, n, model, modeled)
	pbftTimes := make([]simnet.Time, 0, n)
	engines := make([]*pbft.Engine, n)
	for i := 0; i < n; i++ {
		i := i
		cfg := pbft.Config{N: n, F: f, ID: i, Instance: 0, Timeout: time.Hour, Window: resolved.Window,
			OnDeliver: func(b *types.Block) { pbftTimes = append(pbftTimes, simA.Now()) }}
		engines[i] = pbft.New(cfg, nwA, simnet.On(simA, i))
		nwA.Register(i, func(from int, msg any) { engines[i].Handle(from, msg.(pbft.Message)) })
	}
	if err := engines[0].Propose(mkBlock(0, 0, 3)); err != nil {
		t.Fatal(err)
	}
	simA.RunAll(0)
	if len(pbftTimes) != n {
		t.Fatalf("pbft delivered at %d replicas", len(pbftTimes))
	}

	// Analytic run over an identical network.
	simB := simnet.New(1)
	nwB := simnet.NewNetwork(simB, n, model, modeled)
	inst := newInstance(Config{N: n, F: f, Instance: 0}, simB, nwB)
	anaTimes := make([]simnet.Time, 0, n)
	var leader *Port
	for i := 0; i < n; i++ {
		port := inst.Port(i, func(b *types.Block) { anaTimes = append(anaTimes, simB.Now()) })
		if i == 0 {
			leader = port
		}
	}
	if err := leader.Propose(mkBlock(0, 0, 3)); err != nil {
		t.Fatal(err)
	}
	simB.RunAll(0)
	if len(anaTimes) != n {
		t.Fatalf("analytic delivered at %d replicas", len(anaTimes))
	}

	// With a uniform fixed delay all replicas deliver at the same time in
	// both systems; compare the full sorted vectors.
	for i := range pbftTimes {
		if pbftTimes[i] != anaTimes[i] {
			t.Fatalf("delivery %d: pbft %v vs analytic %v", i, pbftTimes[i], anaTimes[i])
		}
	}
}

// TestAnalyticMatchesPBFTOnWAN compares delivery times under the real WAN
// matrix (jitter disabled for exact comparison).
func TestAnalyticMatchesPBFTOnWAN(t *testing.T) {
	const n, f = 8, 2
	wan := simnet.NewWAN()
	wan.JitterFrac = 0 // deterministic for exact comparison

	simA := simnet.New(1)
	nwA := simnet.NewNetwork(simA, n, wan, modeled)
	pbftTimes := make(map[int]simnet.Time, n)
	engines := make([]*pbft.Engine, n)
	for i := 0; i < n; i++ {
		i := i
		cfg := pbft.Config{N: n, F: f, ID: i, Instance: 0, Timeout: time.Hour, Window: resolved.Window,
			OnDeliver: func(b *types.Block) { pbftTimes[i] = simA.Now() }}
		engines[i] = pbft.New(cfg, nwA, simnet.On(simA, i))
		nwA.Register(i, func(from int, msg any) { engines[i].Handle(from, msg.(pbft.Message)) })
	}
	if err := engines[0].Propose(mkBlock(0, 0, 4)); err != nil {
		t.Fatal(err)
	}
	simA.RunAll(0)

	simB := simnet.New(1)
	nwB := simnet.NewNetwork(simB, n, wan, modeled)
	inst := newInstance(Config{N: n, F: f, Instance: 0}, simB, nwB)
	anaTimes := make(map[int]simnet.Time, n)
	var leader *Port
	for i := 0; i < n; i++ {
		i := i
		port := inst.Port(i, func(b *types.Block) { anaTimes[i] = simB.Now() })
		if i == 0 {
			leader = port
		}
	}
	if err := leader.Propose(mkBlock(0, 0, 4)); err != nil {
		t.Fatal(err)
	}
	simB.RunAll(0)

	for i := 0; i < n; i++ {
		if pbftTimes[i] != anaTimes[i] {
			t.Fatalf("replica %d: pbft %v vs analytic %v", i, pbftTimes[i], anaTimes[i])
		}
	}
}

func TestAnalyticStragglerSlowsOwnInstanceOnly(t *testing.T) {
	const n, f = 4, 1
	model := simnet.NewFixed(10 * time.Millisecond)
	run := func(straggle bool) simnet.Time {
		sim := simnet.New(1)
		nw := simnet.NewNetwork(sim, n, model, nil)
		if straggle {
			nw.SetOutScale(0, 10)
		}
		inst := newInstance(Config{N: n, F: f, Instance: 0}, sim, nw)
		var last simnet.Time
		var leader *Port
		for i := 0; i < n; i++ {
			port := inst.Port(i, func(b *types.Block) { last = sim.Now() })
			if i == 0 {
				leader = port
			}
		}
		if err := leader.Propose(mkBlock(0, 0, 1)); err != nil {
			t.Fatal(err)
		}
		sim.RunAll(0)
		return last
	}
	normal, slow := run(false), run(true)
	if slow <= normal {
		t.Fatalf("straggler leader did not slow delivery: %v vs %v", slow, normal)
	}
}

func TestAnalyticStoppedPortDoesNotDeliver(t *testing.T) {
	sim := simnet.New(1)
	nw := simnet.NewNetwork(sim, 4, simnet.NewFixed(time.Millisecond), nil)
	inst := newInstance(Config{N: 4, F: 1, Instance: 0}, sim, nw)
	count := 0
	var leader *Port
	var victim *Port
	for i := 0; i < 4; i++ {
		port := inst.Port(i, func(b *types.Block) { count++ })
		switch i {
		case 0:
			leader = port
		case 3:
			victim = port
		}
	}
	victim.Stop()
	if err := leader.Propose(mkBlock(0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	sim.RunAll(0)
	if count != 3 {
		t.Fatalf("delivered to %d replicas, want 3 (one stopped)", count)
	}
}

// nicRun is one 4-replica analytic instance over a uniform 10 ms network
// with the 1 Gbps NIC model on, its ports recording when each replica
// delivers each block.
type nicRun struct {
	sim    *simnet.Sim
	nw     *simnet.Network
	inst   *Instance
	leader *Port
	at     [][]simnet.Time // at[sn][replica]
}

func newNICRun(t *testing.T) *nicRun {
	t.Helper()
	r := &nicRun{sim: simnet.New(1)}
	r.nw = simnet.NewNetwork(r.sim, 4, simnet.NewFixed(10*time.Millisecond), modeled)
	r.nw.SetNICBps(1e9)
	r.inst = newInstance(Config{N: 4, F: 1, Instance: 0}, r.sim, r.nw)
	for i := 0; i < 4; i++ {
		port := r.inst.Port(i, func(b *types.Block) {
			for len(r.at) <= int(b.SN) {
				r.at = append(r.at, make([]simnet.Time, 4))
			}
			r.at[b.SN][i] = r.sim.Now()
		})
		if i == 0 {
			r.leader = port
		}
	}
	return r
}

func (r *nicRun) propose(t *testing.T, sn uint64, ntx int) {
	t.Helper()
	if err := r.leader.Propose(mkBlock(0, sn, ntx)); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyticLeaderEgress pins how the analytic SB's proposals use the
// leader's NIC egress, the same queue a message-level broadcast waits on.
func TestAnalyticLeaderEgress(t *testing.T) {
	const ntx = 1000 // a 0.5 MB block: 4 ms per copy at 1 Gbps
	each := simnet.Time(float64(wire.BlockSize(ntx, resolved.TxSize)) * 8 / 1e9 * 1e9)

	t.Run("busy link delays, never advances", func(t *testing.T) {
		idle := newNICRun(t)
		idle.propose(t, 0, ntx)
		idle.sim.RunAll(0)

		busy := newNICRun(t)
		busy.nw.Egress(0, 1_000_000, 1) // 8 ms of backlog on the leader's link
		busy.propose(t, 0, ntx)
		busy.sim.RunAll(0)
		later := false
		for i := range 4 {
			if busy.at[0][i] < idle.at[0][i] {
				t.Fatalf("replica %d delivered at %v behind a busy link, before the idle link's %v", i, busy.at[0][i], idle.at[0][i])
			}
			later = later || busy.at[0][i] > idle.at[0][i]
		}
		if !later {
			t.Fatal("8 ms of backlog on the leader's egress delayed no replica")
		}
		if busy.inst.hits != 0 {
			t.Fatalf("a proposal on a busy link was served from quorumCache (%d hits)", busy.inst.hits)
		}
	})

	t.Run("back-to-back proposals serialize", func(t *testing.T) {
		r := newNICRun(t)
		r.propose(t, 0, ntx)
		r.propose(t, 1, ntx)
		if start, _ := r.nw.Egress(0, 0, 0); start != 6*each {
			t.Fatalf("leader's egress free at %v after two proposals, want 2 x 3 copies x %v", start, each)
		}
		r.sim.RunAll(0)
		// Over a uniform network the second block's quorums form exactly
		// one proposal's copies (n-1 of them) behind the first's.
		for i := range 4 {
			if gap := r.at[1][i] - r.at[0][i]; gap != 3*each {
				t.Fatalf("replica %d: second block %v after the first, want %v", i, gap, 3*each)
			}
		}
	})

	t.Run("idle link served from quorumCache", func(t *testing.T) {
		r := newNICRun(t)
		r.propose(t, 0, ntx)
		r.sim.RunAll(0) // the link has long drained
		t1 := r.sim.Now()
		r.propose(t, 1, ntx)
		r.sim.RunAll(0)
		if r.inst.hits != 1 {
			t.Fatalf("quorumCache hits = %d over one repeated idle proposal, want 1", r.inst.hits)
		}
		for i := range 4 {
			if r.at[1][i]-t1 != r.at[0][i] {
				t.Fatalf("replica %d: cached offset %v, computed %v", i, r.at[1][i]-t1, r.at[0][i])
			}
		}
	})
}

// TestAnalyticTracksPBFTWithNIC runs one large proposal through
// message-level PBFT and the analytic SB with the NIC model on both. The
// pre-prepare copies queue identically; the analytic model leaves the
// votes uncharged, so it may deliver earlier by at most each replica's
// two vote broadcasts' serialization (2 (n-1) x wire.VoteSize at 1 Gbps).
func TestAnalyticTracksPBFTWithNIC(t *testing.T) {
	const n, f = 7, 2
	model := simnet.NewFixed(15 * time.Millisecond)
	voteEach := simnet.Time(float64(wire.VoteSize) * 8 / 1e9 * 1e9)
	slack := 2 * (n - 1) * voteEach

	simA := simnet.New(1)
	nwA := simnet.NewNetwork(simA, n, model, modeled)
	nwA.SetNICBps(1e9)
	pbftTimes := make([]simnet.Time, n)
	engines := make([]*pbft.Engine, n)
	for i := 0; i < n; i++ {
		i := i
		cfg := pbft.Config{N: n, F: f, ID: i, Instance: 0, Timeout: time.Hour, Window: resolved.Window,
			OnDeliver: func(b *types.Block) { pbftTimes[i] = simA.Now() }}
		engines[i] = pbft.New(cfg, nwA, simnet.On(simA, i))
		nwA.Register(i, func(from int, msg any) { engines[i].Handle(from, msg.(pbft.Message)) })
	}
	if err := engines[0].Propose(mkBlock(0, 0, 1000)); err != nil {
		t.Fatal(err)
	}
	simA.RunAll(0)

	simB := simnet.New(1)
	nwB := simnet.NewNetwork(simB, n, model, modeled)
	nwB.SetNICBps(1e9)
	inst := newInstance(Config{N: n, F: f, Instance: 0}, simB, nwB)
	anaTimes := make([]simnet.Time, n)
	var leader *Port
	for i := 0; i < n; i++ {
		i := i
		port := inst.Port(i, func(b *types.Block) { anaTimes[i] = simB.Now() })
		if i == 0 {
			leader = port
		}
	}
	if err := leader.Propose(mkBlock(0, 0, 1000)); err != nil {
		t.Fatal(err)
	}
	simB.RunAll(0)

	for i := 0; i < n; i++ {
		if d := pbftTimes[i] - anaTimes[i]; d < 0 || d > slack {
			t.Fatalf("replica %d: pbft %v, analytic %v: analytic earlier by %v, want within [0, %v]", i, pbftTimes[i], anaTimes[i], d, slack)
		}
	}
}

// TestNth checks the quickselect behind the quorum phases against a sort,
// on slices with and without repeated values.
func TestNth(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 2000; trial++ {
		s := make([]simnet.Time, 1+rng.IntN(40))
		spread := 1 + rng.IntN(8)
		if trial%2 == 0 {
			spread = 1 << 30
		}
		for i := range s {
			s[i] = simnet.Time(rng.IntN(spread))
		}
		sorted := slices.Sorted(slices.Values(s))
		k := rng.IntN(len(s))
		if got := nth(slices.Clone(s), k); got != sorted[k] {
			t.Fatalf("nth(%v, %d) = %v, want %v", s, k, got, sorted[k])
		}
	}
}
