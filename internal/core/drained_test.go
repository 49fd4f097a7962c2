package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/order"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/types"
)

// drivenSB is an SB stub the test drives: it leads when lead is set,
// records every proposal, and delivers only what the test hands the
// replica through deliver; install moves it to a new view.
type drivenSB struct {
	countingSB
	lead      bool
	view      uint64
	deliverFn func(*types.Block)
	viewFn    func(view uint64, leader int)
	proposals []*types.Block
}

func (s *drivenSB) CanPropose() bool { return s.lead }
func (s *drivenSB) IsLeader() bool   { return s.lead }
func (s *drivenSB) View() uint64     { return s.view }
func (s *drivenSB) Propose(b *types.Block) error {
	s.proposals = append(s.proposals, b)
	return s.countingSB.Propose(b)
}

// deliver delivers the instance's proposal k, as agreement would.
func (s *drivenSB) deliver(k int) { s.deliverFn(s.proposals[k]) }

// install installs view v, which this replica keeps leading.
func (s *drivenSB) install(v uint64) {
	s.view = v
	s.viewFn(v, 0)
}

// drainRig is one replica (ID 0 of n = 4, m = 4) leading instance 0, and
// the sequencer instance when the mode has one, over driven SBs, with a 1 s
// pulse so that nothing but the test's deliveries and submissions makes it
// propose between pulses. Its drained-pipeline floor is n² = 16.
type drainRig struct {
	sim   *simnet.Sim
	r     *Replica
	sbs   []*drivenSB
	nonce uint64
}

// floor is the rig's drained-pipeline floor, n² at n = 4.
const floor = 16

// payers are accounts whose bucket is instance 0: rich ones hold 100,
// broke ones nothing.
func payers(prefix string, k int) []types.Key {
	var out []types.Key
	for i := 0; len(out) < k; i++ {
		if key := types.Key(fmt.Sprintf("%s%d", prefix, i)); partition.Assign(key, 4) == 0 {
			out = append(out, key)
		}
	}
	return out
}

func newDrainRig(t *testing.T, mode Mode, mutate func(*Config)) *drainRig {
	t.Helper()
	g := &drainRig{sim: simnet.New(1)}
	nw := simnet.NewNetwork(g.sim, 4, simnet.NewFixed(time.Millisecond), nil)
	cfg := Config{
		N: 4, F: 1, ID: 0, M: 4,
		Mode:   mode,
		Params: Params{BatchSize: 64, BatchTimeout: time.Second, ViewTimeout: 2 * time.Second},
		Genesis: func(st *ledger.Store) {
			for _, k := range payers("rich", 2*floor) {
				st.Credit(k, 100)
			}
		},
		SB: func(instance int, hooks SBHooks) SB {
			s := &drivenSB{lead: instance == 0 || instance == 4, deliverFn: hooks.OnDeliver, viewFn: hooks.OnViewChange}
			g.sbs = append(g.sbs, s)
			return s
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	g.r = NewReplica(cfg, simnet.On(g.sim, 0), nw)
	return g
}

// firstPulse starts the replica and runs it to just past its first pulse,
// which proposes an empty block on instance 0 (SN 0).
func (g *drainRig) firstPulse(t *testing.T, at time.Duration) {
	t.Helper()
	g.r.Start()
	g.sim.Run(simnet.Time(at))
	if n := len(g.sbs[0].proposals); n != 1 || len(g.sbs[0].proposals[0].Txs) != 0 {
		t.Fatalf("first pulse proposed %d blocks on instance 0, want one empty block", n)
	}
}

// level delivers empty blocks up to SN sn-1 on instances 1-3, which other
// replicas lead, so that instance 0 is no longer ahead of them once it has
// delivered sn blocks itself.
func (g *drainRig) level(sn uint64) {
	for i := 1; i < 4; i++ {
		for g.r.state[i] < sn {
			g.sbs[i].deliverFn(&types.Block{Instance: i, SN: g.r.state[i], Rank: g.r.rank.Highest() + 1})
		}
	}
}

// submit hands the replica one payment from each payer, in order.
func (g *drainRig) submit(t *testing.T, from []types.Key) []*types.Transaction {
	t.Helper()
	txs := make([]*types.Transaction, len(from))
	for i, k := range from {
		g.nonce++
		txs[i] = types.NewPayment(k, "sink", 10, g.nonce)
		if err := g.r.SubmitTx(txs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return txs
}

// requireQueued checks that instance 0's bucket holds exactly want, in
// order.
func (g *drainRig) requireQueued(t *testing.T, want []*types.Transaction) {
	t.Helper()
	if got := g.r.buckets.Bucket(0).Peek(64); !slices.Equal(got, want) {
		t.Fatalf("bucket 0 holds %d transactions %v, want %d in submission order", len(got), got, len(want))
	}
}

// requireUnpromised checks that no debit is promised.
func (g *drainRig) requireUnpromised(t *testing.T) {
	t.Helper()
	for h, p := range g.r.promised {
		if p != 0 {
			t.Fatalf("handle %d has %d promised after a cut that proposed nothing", h, p)
		}
	}
}

// TestDrainedLeaderProposesAtSubmission: once an idle leader's instance
// has delivered in its view and is level with the others, the submission
// that brings its bucket to n² transactions proposes them at once; the one
// before it does not.
func TestDrainedLeaderProposesAtSubmission(t *testing.T) {
	g := newDrainRig(t, OrthrusMode(), nil)
	g.firstPulse(t, 1100*time.Millisecond)
	g.level(1)
	g.sbs[0].deliver(0)
	from := payers("rich", floor)
	g.submit(t, from[:floor-1])
	if n := len(g.sbs[0].proposals); n != 1 || g.r.EarlyProposals() != 0 {
		t.Fatalf("%d proposals, %d early, with n²-1 transactions queued; want 1, 0", n, g.r.EarlyProposals())
	}
	g.submit(t, from[floor-1:])
	props := g.sbs[0].proposals
	if len(props) != 2 || g.r.EarlyProposals() != 1 {
		t.Fatalf("%d proposals, %d early, after the n²-th submission; want 2, 1", len(props), g.r.EarlyProposals())
	}
	if b := props[1]; b.SN != 1 || len(b.Txs) != floor || b.ProposeNS != int64(1100*time.Millisecond) {
		t.Fatalf("early block SN %d, %d txs, proposed at %v; want SN 1, %d txs, at the submission (1.1s)",
			b.SN, len(b.Txs), time.Duration(b.ProposeNS), floor)
	}
	g.requireQueued(t, nil)
	// With that block in flight, the next n² submissions wait.
	txs := g.submit(t, payers("rich", 2*floor)[floor:])
	if n := len(g.sbs[0].proposals); n != 2 {
		t.Fatalf("submissions proposed with a block in flight: %d proposals", n)
	}
	g.requireQueued(t, txs)
}

// TestDrainedLeaderProposesAtDelivery: a leader whose instance drains while
// it holds at least n² feasible transactions proposes them at the delivery,
// not at its next pulse.
func TestDrainedLeaderProposesAtDelivery(t *testing.T) {
	g := newDrainRig(t, OrthrusMode(), nil)
	g.firstPulse(t, 1100*time.Millisecond)
	g.level(1)
	txs := g.submit(t, payers("rich", floor))
	g.sbs[0].deliver(0)
	props := g.sbs[0].proposals
	if len(props) != 2 {
		t.Fatalf("instance 0 has %d proposals after the delivery, want 2 (the early one)", len(props))
	}
	b := props[1]
	if b.SN != 1 || len(b.Txs) != len(txs) || b.ProposeNS != int64(1100*time.Millisecond) {
		t.Fatalf("early block SN %d, %d txs, proposed at %v; want SN 1, %d txs, at the delivery (1.1s)",
			b.SN, len(b.Txs), time.Duration(b.ProposeNS), len(txs))
	}
	if got := g.r.EarlyProposals(); got != 1 {
		t.Fatalf("EarlyProposals = %d, want 1", got)
	}
	g.requireQueued(t, nil)
	// Delivering the early block drains the instance again, but the bucket
	// is empty: nothing more is proposed.
	g.level(2)
	g.sbs[0].deliver(1)
	if n := len(g.sbs[0].proposals); n != 2 {
		t.Fatalf("delivery with an empty bucket proposed: %d proposals", n)
	}
}

// TestDrainedLeaderWaitsWhileInFlight: neither a delivery that leaves a
// proposal of this leader in flight nor a submission meanwhile proposes;
// the delivery that drains the instance does.
func TestDrainedLeaderWaitsWhileInFlight(t *testing.T) {
	g := newDrainRig(t, OrthrusMode(), nil)
	g.firstPulse(t, 1100*time.Millisecond)
	g.sim.Run(simnet.Time(2100 * time.Millisecond)) // SN 1, empty, joins SN 0 in flight
	g.level(2)
	from := payers("rich", floor+1)
	txs := g.submit(t, from[:floor])
	g.sbs[0].deliver(0)
	if n := len(g.sbs[0].proposals); n != 2 {
		t.Fatalf("a delivery with SN 1 still in flight proposed: %d proposals, want 2", n)
	}
	txs = append(txs, g.submit(t, from[floor:])...)
	if n := len(g.sbs[0].proposals); n != 2 {
		t.Fatalf("a submission with SN 1 still in flight proposed: %d proposals, want 2", n)
	}
	g.requireQueued(t, txs)
	g.sbs[0].deliver(1)
	if props := g.sbs[0].proposals; len(props) != 3 || len(props[2].Txs) != len(txs) || g.r.EarlyProposals() != 1 {
		t.Fatalf("the delivery that drained the instance left %d proposals, %d early; want 3, 1", len(props), g.r.EarlyProposals())
	}
}

// TestDrainedLeaderBelowFloorWaitsForPulse: with n²-1 feasible transactions
// the delivery proposes nothing and leaves the bucket as it was; the pulse
// proposes them.
func TestDrainedLeaderBelowFloorWaitsForPulse(t *testing.T) {
	g := newDrainRig(t, OrthrusMode(), nil)
	g.firstPulse(t, 1100*time.Millisecond)
	g.level(1)
	txs := g.submit(t, payers("rich", floor-1))
	g.sbs[0].deliver(0)
	if n := len(g.sbs[0].proposals); n != 1 || g.r.EarlyProposals() != 0 {
		t.Fatalf("%d proposals, %d early, after a delivery with n²-1 transactions; want 1, 0", n, g.r.EarlyProposals())
	}
	g.requireQueued(t, txs)
	g.requireUnpromised(t)
	g.sim.Run(simnet.Time(2100 * time.Millisecond))
	props := g.sbs[0].proposals
	if len(props) != 2 || len(props[1].Txs) != len(txs) || props[1].ProposeNS != int64(2*time.Second) {
		t.Fatalf("the 2s pulse proposed %d blocks; want one of %d txs at 2s", len(props)-1, len(txs))
	}
}

// TestDrainedOnlyHonestFullSpeedLeaders: a straggler, a ByzantineMute
// leader and the DQBFT sequencer keep to their pulse, whatever a delivery
// leaves queued.
func TestDrainedOnlyHonestFullSpeedLeaders(t *testing.T) {
	t.Run("straggler", func(t *testing.T) {
		g := newDrainRig(t, OrthrusMode(), nil)
		g.r.SetPulseScale(2)
		g.firstPulse(t, 2100*time.Millisecond)
		g.level(1)
		g.submit(t, payers("rich", floor))
		g.sbs[0].deliver(0)
		if n := len(g.sbs[0].proposals); n != 1 {
			t.Fatalf("a straggler proposed at a delivery: %d proposals", n)
		}
	})
	t.Run("ByzantineMute", func(t *testing.T) {
		g := newDrainRig(t, OrthrusMode(), func(c *Config) { c.ByzantineMute = true })
		g.firstPulse(t, 1700*time.Millisecond) // its pulse is 4/5 of the 2s view timeout
		g.level(1)
		g.submit(t, payers("rich", floor))
		g.sbs[0].deliver(0)
		if n := len(g.sbs[0].proposals); n != 1 {
			t.Fatalf("a ByzantineMute leader proposed at a delivery: %d proposals", n)
		}
	})
	t.Run("DQBFT sequencer", func(t *testing.T) {
		mode := Mode{
			Name:      "sequenced",
			NewGlobal: func(m int) GlobalOrdering { return WorkerOrdering{Ord: order.NewDynamic(m)} },
			Sequencer: true,
		}
		g := newDrainRig(t, mode, nil)
		g.firstPulse(t, 1100*time.Millisecond)
		seq := g.sbs[4]
		if len(seq.proposals) != 0 {
			t.Fatal("the sequencer proposed with nothing to order")
		}
		g.sbs[0].deliver(0) // the sequencer now has a reference to order
		if len(seq.proposals) != 0 {
			t.Fatal("the sequencer proposed at a worker delivery, ahead of its pulse")
		}
		g.sim.Run(simnet.Time(2100 * time.Millisecond))
		if len(seq.proposals) != 1 || len(seq.proposals[0].Refs) != 1 || seq.proposals[0].ProposeNS != int64(2*time.Second) {
			t.Fatalf("the sequencer's 2s pulse proposed %d blocks; want one ordering the delivered block", len(seq.proposals))
		}
	})
}

// TestDrainedLockstepOrdersKeepThePulse: under a predetermined order (the
// ISS and Mir shapes, StrictEpochBarrier) neither a delivery nor a
// submission proposes early; the pulse proposes the held transactions.
func TestDrainedLockstepOrdersKeepThePulse(t *testing.T) {
	predetermined := func(m int) GlobalOrdering { return WorkerOrdering{Ord: order.NewPredetermined(m)} }
	for _, mode := range []Mode{
		{Name: "ISS", NewGlobal: predetermined, StrictEpochBarrier: true},
		{Name: "Mir", NewGlobal: predetermined, StrictEpochBarrier: true, EpochStallOnViewChange: true},
	} {
		t.Run(mode.Name, func(t *testing.T) {
			g := newDrainRig(t, mode, nil)
			g.firstPulse(t, 1100*time.Millisecond)
			g.level(1)
			from := payers("rich", floor+1)
			txs := g.submit(t, from[:floor])
			g.sbs[0].deliver(0)
			txs = append(txs, g.submit(t, from[floor:])...)
			if n := len(g.sbs[0].proposals); n != 1 || g.r.EarlyProposals() != 0 {
				t.Fatalf("%d proposals, %d early, under a lockstep order; want 1, 0", n, g.r.EarlyProposals())
			}
			g.sim.Run(simnet.Time(2100 * time.Millisecond))
			if props := g.sbs[0].proposals; len(props) != 2 || len(props[1].Txs) != len(txs) {
				t.Fatalf("the 2s pulse left %d proposals, want 2 with the %d held transactions", len(props), len(txs))
			}
		})
	}
}

// TestDrainedFirstBlockOfTheViewIsThePulses: after a view installs, the
// leader proposes early only once its instance has delivered a block in
// that view; until then its pulse makes the view's first proposal.
func TestDrainedFirstBlockOfTheViewIsThePulses(t *testing.T) {
	g := newDrainRig(t, OrthrusMode(), nil)
	g.firstPulse(t, 1100*time.Millisecond)
	g.level(1)
	g.sbs[0].deliver(0)
	g.sbs[0].install(4)
	txs := g.submit(t, payers("rich", floor))
	if n := len(g.sbs[0].proposals); n != 1 || g.r.EarlyProposals() != 0 {
		t.Fatalf("%d proposals, %d early, before the view's first delivery; want 1, 0", n, g.r.EarlyProposals())
	}
	g.requireQueued(t, txs)
	g.sim.Run(simnet.Time(2100 * time.Millisecond))
	if props := g.sbs[0].proposals; len(props) != 2 || len(props[1].Txs) != len(txs) {
		t.Fatalf("the 2s pulse left %d proposals, want 2 with the %d held transactions", len(props), len(txs))
	}
	// The view's first block delivered: the next n² submissions propose.
	g.level(2)
	g.sbs[0].deliver(1)
	g.submit(t, payers("rich", 2*floor)[floor:])
	if props := g.sbs[0].proposals; len(props) != 3 || len(props[2].Txs) != floor || g.r.EarlyProposals() != 1 {
		t.Fatalf("%d proposals, %d early, after the view's first delivery; want 3, 1", len(props), g.r.EarlyProposals())
	}
}

// TestDrainedCutThatFailsPutsEverythingBack: a batch whose censor or
// feasibility filter leaves fewer than n² transactions goes back to the
// bucket whole, in its order and with no debit promised, and nothing is
// proposed — so an empty block cannot spin at consensus speed. The cut is
// tried at the delivery and again at every submission after it.
func TestDrainedCutThatFailsPutsEverythingBack(t *testing.T) {
	rich, broke := payers("rich", floor-1), payers("broke", floor+1)
	for _, c := range []struct {
		name   string
		from   []types.Key
		censor bool
	}{
		{"all infeasible", broke, false},
		{"all censored", payers("rich", floor+1), true},
		// n²-1 feasible (promised while cutting) among two infeasible.
		{"too few feasible", append([]types.Key{broke[0]}, append(slices.Clone(rich), broke[1])...), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := newDrainRig(t, OrthrusMode(), nil)
			g.r.SetCensorAll(c.censor)
			g.firstPulse(t, 1100*time.Millisecond)
			g.level(1)
			txs := g.submit(t, c.from[:floor])
			g.sbs[0].deliver(0)
			txs = append(txs, g.submit(t, c.from[floor:])...)
			if n := len(g.sbs[0].proposals); n != 1 || g.r.EarlyProposals() != 0 {
				t.Fatalf("%d proposals, %d early; want nothing proposed early", n, g.r.EarlyProposals())
			}
			g.requireQueued(t, txs)
			g.requireUnpromised(t)
		})
	}
}

// TestDrainedWaitsLevelWithTheSlowest: an instance ahead of the replica's
// slowest one keeps its bucket, at a delivery and at a submission, so a hot
// bucket cannot run ahead of the pulse-driven instances; once they catch
// up, the next submission proposes.
func TestDrainedWaitsLevelWithTheSlowest(t *testing.T) {
	g := newDrainRig(t, OrthrusMode(), nil)
	g.firstPulse(t, 1100*time.Millisecond)
	from := payers("rich", floor+1)
	txs := g.submit(t, from[:floor])
	g.sbs[0].deliver(0) // one block ahead of instances 1-3: waits
	if n := len(g.sbs[0].proposals); n != 1 || g.r.EarlyProposals() != 0 {
		t.Fatalf("an instance ahead of the slowest proposed early: %d proposals, %d early", n, g.r.EarlyProposals())
	}
	g.requireQueued(t, txs)
	g.level(1)
	g.submit(t, from[floor:])
	if props := g.sbs[0].proposals; len(props) != 2 || len(props[1].Txs) != floor+1 || g.r.EarlyProposals() != 1 {
		t.Fatalf("%d proposals, %d early, once level with the slowest; want 2, 1", len(props), g.r.EarlyProposals())
	}
}

// TestDrainedHeldAtTheEpochBound: the early proposal obeys the same gate as
// the pulse, so an instance at the epoch run-ahead bound (epochLead epochs
// past the stable checkpoint, here 4 blocks of EpochLen 1 with none stable)
// proposes nothing, however full its bucket.
func TestDrainedHeldAtTheEpochBound(t *testing.T) {
	g := newDrainRig(t, OrthrusMode(), func(c *Config) { c.EpochLen = 1 })
	g.r.Start()
	for sn := uint64(0); sn < epochLead; sn++ {
		g.level(sn + 1)
		g.sbs[0].next = sn + 1
		g.sbs[0].deliverFn(&types.Block{Instance: 0, SN: sn, Rank: g.r.rank.Highest() + 1})
	}
	txs := g.submit(t, payers("rich", floor))
	if n := len(g.sbs[0].proposals); n != 0 || g.r.EarlyProposals() != 0 {
		t.Fatalf("%d proposals, %d early, at the epoch bound; want none", n, g.r.EarlyProposals())
	}
	g.requireQueued(t, txs)
}
