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
// replica through deliver.
type drivenSB struct {
	countingSB
	lead      bool
	deliverFn func(*types.Block)
	proposals []*types.Block
}

func (s *drivenSB) CanPropose() bool { return s.lead }
func (s *drivenSB) IsLeader() bool   { return s.lead }
func (s *drivenSB) Propose(b *types.Block) error {
	s.proposals = append(s.proposals, b)
	return s.countingSB.Propose(b)
}

// deliver delivers the instance's proposal k, as agreement would.
func (s *drivenSB) deliver(k int) { s.deliverFn(s.proposals[k]) }

// drainRig is one replica (ID 0 of n = 4, m = 4) leading instance 0, and
// the sequencer instance when the mode has one, over driven SBs, with a 1 s
// pulse so that nothing but the test's deliveries makes it propose between
// pulses.
type drainRig struct {
	sim   *simnet.Sim
	r     *Replica
	sbs   []*drivenSB
	nonce uint64
}

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
			for _, k := range payers("rich", 8) {
				st.Credit(k, 100)
			}
		},
		SB: func(instance int, hooks SBHooks) SB {
			s := &drivenSB{lead: instance == 0 || instance == 4, deliverFn: hooks.OnDeliver}
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

// TestDrainedLeaderProposesAtDelivery: a leader whose instance drains while
// it holds at least n feasible transactions proposes them at the delivery,
// not at its next pulse.
func TestDrainedLeaderProposesAtDelivery(t *testing.T) {
	g := newDrainRig(t, OrthrusMode(), nil)
	g.firstPulse(t, 1100*time.Millisecond)
	txs := g.submit(t, payers("rich", 5))
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
	g.sbs[0].deliver(1)
	if n := len(g.sbs[0].proposals); n != 2 {
		t.Fatalf("delivery with an empty bucket proposed: %d proposals", n)
	}
}

// TestDrainedLeaderWaitsWhileInFlight: a delivery that leaves a proposal of
// this leader in flight proposes nothing; the one that drains the instance
// does.
func TestDrainedLeaderWaitsWhileInFlight(t *testing.T) {
	g := newDrainRig(t, OrthrusMode(), nil)
	g.firstPulse(t, 1100*time.Millisecond)
	g.sim.Run(simnet.Time(2100 * time.Millisecond)) // SN 1, empty, joins SN 0 in flight
	txs := g.submit(t, payers("rich", 4))
	g.sbs[0].deliver(0)
	if n := len(g.sbs[0].proposals); n != 2 {
		t.Fatalf("a delivery with SN 1 still in flight proposed: %d proposals, want 2", n)
	}
	g.requireQueued(t, txs)
	g.sbs[0].deliver(1)
	if props := g.sbs[0].proposals; len(props) != 3 || len(props[2].Txs) != len(txs) || g.r.EarlyProposals() != 1 {
		t.Fatalf("the delivery that drained the instance left %d proposals, %d early; want 3, 1", len(props), g.r.EarlyProposals())
	}
}

// TestDrainedLeaderBelowFloorWaitsForPulse: with fewer than n feasible
// transactions the delivery proposes nothing and leaves the bucket as it
// was; the pulse proposes them.
func TestDrainedLeaderBelowFloorWaitsForPulse(t *testing.T) {
	g := newDrainRig(t, OrthrusMode(), nil)
	g.firstPulse(t, 1100*time.Millisecond)
	txs := g.submit(t, payers("rich", 3))
	g.sbs[0].deliver(0)
	if n := len(g.sbs[0].proposals); n != 1 || g.r.EarlyProposals() != 0 {
		t.Fatalf("%d proposals, %d early, after a delivery with 3 < n transactions; want 1, 0", n, g.r.EarlyProposals())
	}
	g.requireQueued(t, txs)
	g.requireUnpromised(t)
	g.sim.Run(simnet.Time(2100 * time.Millisecond))
	props := g.sbs[0].proposals
	if len(props) != 2 || len(props[1].Txs) != 3 || props[1].ProposeNS != int64(2*time.Second) {
		t.Fatalf("the 2s pulse proposed %d blocks; want one of 3 txs at 2s", len(props)-1)
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
		g.submit(t, payers("rich", 5))
		g.sbs[0].deliver(0)
		if n := len(g.sbs[0].proposals); n != 1 {
			t.Fatalf("a straggler proposed at a delivery: %d proposals", n)
		}
	})
	t.Run("ByzantineMute", func(t *testing.T) {
		g := newDrainRig(t, OrthrusMode(), func(c *Config) { c.ByzantineMute = true })
		g.firstPulse(t, 1700*time.Millisecond) // its pulse is 4/5 of the 2s view timeout
		g.submit(t, payers("rich", 5))
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

// TestDrainedCutThatFailsPutsEverythingBack: a batch whose censor or
// feasibility filter leaves fewer than n transactions goes back to the
// bucket whole, in its order and with no debit promised, and nothing is
// proposed — so an empty block cannot spin at consensus speed.
func TestDrainedCutThatFailsPutsEverythingBack(t *testing.T) {
	rich, broke := payers("rich", 3), payers("broke", 4)
	for _, c := range []struct {
		name   string
		from   []types.Key
		censor bool
	}{
		{"all infeasible", broke, false},
		{"all censored", payers("rich", 5), true},
		// Three feasible (promised while cutting) among two infeasible.
		{"too few feasible", []types.Key{rich[0], broke[0], rich[1], broke[1], rich[2]}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := newDrainRig(t, OrthrusMode(), nil)
			g.r.SetCensorAll(c.censor)
			g.firstPulse(t, 1100*time.Millisecond)
			txs := g.submit(t, c.from)
			g.sbs[0].deliver(0)
			if n := len(g.sbs[0].proposals); n != 1 || g.r.EarlyProposals() != 0 {
				t.Fatalf("%d proposals, %d early; want nothing proposed at the delivery", n, g.r.EarlyProposals())
			}
			g.requireQueued(t, txs)
			g.requireUnpromised(t)
		})
	}
}

// TestDrainedStaysWithinAnEpoch: an instance a full epoch ahead of the
// replica's slowest one keeps to its pulse, so a hot bucket cannot run into
// the epoch run-ahead bound while the others wait for their pulses.
func TestDrainedStaysWithinAnEpoch(t *testing.T) {
	g := newDrainRig(t, OrthrusMode(), func(c *Config) { c.EpochLen = 2 })
	g.firstPulse(t, 1100*time.Millisecond)
	g.submit(t, payers("rich", 4))
	g.sbs[0].deliver(0) // one block ahead of instances 1-3: proposes early
	if n := len(g.sbs[0].proposals); n != 2 {
		t.Fatalf("%d proposals after the first delivery, want 2", n)
	}
	txs := g.submit(t, payers("rich", 4))
	g.sbs[0].deliver(1) // two blocks, an epoch, ahead: waits
	if n := len(g.sbs[0].proposals); n != 2 || g.r.EarlyProposals() != 1 {
		t.Fatalf("an instance an epoch ahead proposed early: %d proposals, %d early", n, g.r.EarlyProposals())
	}
	g.requireQueued(t, txs)
	g.sim.Run(simnet.Time(2100 * time.Millisecond))
	if props := g.sbs[0].proposals; len(props) != 3 || len(props[2].Txs) != len(txs) {
		t.Fatalf("the 2s pulse left %d proposals, want 3 with the %d held transactions", len(props), len(txs))
	}
}
