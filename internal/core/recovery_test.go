package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/types"
)

// The crash -> recover -> state-transfer catch-up matrix: a victim replica
// misses deliveries while down, rejoins, and repairs its log gap by
// replaying only the missed blocks from its peers — never anything below
// its own prefix, and never the same slot twice. Runs cover LAN and WAN
// delay models, two cluster sizes, and several seeds.

// catchUpCluster instruments a testCluster with a per-replica delivery log
// keyed (instance, seq) so the matrix can assert digest agreement and
// no-replay.
type catchUpCluster struct {
	*testCluster
	// delivered[slot][replica] is the delivered digest; deliveries[replica]
	// counts per-slot delivery events, so any count > 1 is a replay.
	delivered  map[blockSlot]map[int]types.BlockID
	deliveries []map[blockSlot]int
}

func newCatchUpCluster(t *testing.T, n int, seed int64, wan bool) *catchUpCluster {
	t.Helper()
	cc := &catchUpCluster{
		delivered:  map[blockSlot]map[int]types.BlockID{},
		deliveries: make([]map[blockSlot]int, n),
	}
	mutate := func(i int, cfg *core.Config) {
		cfg.EpochLen = 4
		// Keep the outage inside the repair envelope, like the soak preset
		// does: block-replay catch-up reaches one epoch below the stable
		// floor, so the 500 ms outage (plus the catch-up round trips) must
		// stay under an epoch = EpochLen x BatchTimeout = 800 ms.
		cfg.BatchTimeout = 200 * time.Millisecond
		cfg.ViewTimeout = 2 * time.Second
		cc.deliveries[i] = map[blockSlot]int{}
		cfg.OnBlockDeliver = func(instance int, b *types.Block) {
			slot := blockSlot{instance: instance, seq: b.SN}
			if cc.delivered[slot] == nil {
				cc.delivered[slot] = map[int]types.BlockID{}
			}
			cc.delivered[slot][i] = b.Digest()
			cc.deliveries[i][slot]++
		}
	}
	genesis := genesisRich(accountNames(12)...)
	if wan {
		cc.testCluster = newTestClusterSeed(t, n, core.OrthrusMode(), genesis, mutate, seed)
	} else {
		cc.testCluster = newTestCluster(t, n, core.OrthrusMode(), genesis, mutate)
	}
	return cc
}

func accountNames(k int) []types.Key {
	var names []types.Key
	for i := 0; i < k; i++ {
		names = append(names, types.Key(fmt.Sprintf("acct%d", i)))
	}
	return names
}

// runCatchUpMatrixCell drives one cell: staggered payments over 8 s, the
// victim down [2 s, 2.5 s) — within the archives' one-epoch hysteresis
// (epochs are EpochLen x BatchTimeout deep) so the gap is fully repairable.
func runCatchUpMatrixCell(t *testing.T, n int, seed int64, wan bool) {
	t.Helper()
	cc := newCatchUpCluster(t, n, seed, wan)
	rng := rand.New(rand.NewSource(seed))
	names := accountNames(12)
	for i := 0; i < 40; i++ {
		from := names[rng.Intn(len(names))]
		to := names[rng.Intn(len(names))]
		tx := types.NewPayment(from, to, types.Amount(rng.Intn(9)+1), uint64(i))
		at := simnet.Time(time.Duration(rng.Intn(8000)) * time.Millisecond)
		cc.sim.At(at, func() {
			tx.SubmitNS = int64(cc.sim.Now())
			for _, r := range cc.replicas {
				_ = r.SubmitTx(tx)
			}
		})
	}

	victim := 1 + rng.Intn(n-1) // replica 0 stays up as the observer
	t.Logf("victim = replica %d", victim)
	var stableAtCrash uint64
	cc.sim.At(simnet.Time(2*time.Second), func() {
		_, stableAtCrash = cc.replicas[victim].Epoch()
		cc.replicas[victim].Stop()
		cc.nw.SetDown(victim, true)
	})
	cc.sim.At(simnet.Time(2500*time.Millisecond), func() {
		cc.nw.SetDown(victim, false)
		cc.replicas[victim].Recover()
	})
	cc.run(16 * time.Second)

	requireSlotAgreement(t, cc.delivered)
	for i, counts := range cc.deliveries {
		for slot, k := range counts {
			if k > 1 {
				t.Fatalf("replica %d delivered instance %d seq %d %d times: pre-checkpoint replay",
					i, slot.instance, slot.seq, k)
			}
		}
	}
	v := cc.replicas[victim]
	if v.StateTransferApplied() == 0 {
		t.Fatalf("victim %d repaired its gap without the catch-up protocol (view-change no-ops?)", victim)
	}
	// The victim's catch-up must have closed the gap completely: after
	// quiescence it delivers and stabilizes like everyone else, which is
	// only possible with a contiguous log (a residual gap would wedge its
	// delivery cursor and freeze its boundary digests).
	if _, stable := v.Epoch(); stable <= stableAtCrash {
		t.Fatalf("victim's stable epoch stuck at %d since the crash: gap never healed", stable)
	}
	cc.requireConsistent(t)
}

func TestCrashRecoverCatchUpMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 6 multi-second simulated clusters")
	}
	for _, cell := range []struct {
		n   int
		wan bool
	}{{7, false}, {10, true}} {
		for seed := int64(1); seed <= 3; seed++ {
			cell, seed := cell, seed
			net := "lan"
			if cell.wan {
				net = "wan"
			}
			t.Run(fmt.Sprintf("n=%d/%s/seed=%d", cell.n, net, seed), func(t *testing.T) {
				t.Parallel()
				runCatchUpMatrixCell(t, cell.n, seed, cell.wan)
			})
		}
	}
}

// TestFirstEpochLaggardCatchesUp: a replica that falls behind in epoch 0
// without crashing — its endpoint is down for 100 ms, it is never stopped
// or recovered — requests catch-up on the first checkpoint quorum it
// cannot match. Epoch 0's quorum must count: by epoch 1's the peers' logs
// start at EpochLen, the laggard would get a suffix it cannot apply, and
// it would stay wedged for the rest of the run.
func TestFirstEpochLaggardCatchesUp(t *testing.T) {
	const laggard = 3
	names := accountNames(4)
	c := newTestCluster(t, 4, core.OrthrusMode(), genesisRich(names...), func(i int, cfg *core.Config) {
		cfg.EpochLen = 8
		cfg.BatchTimeout = 100 * time.Millisecond
		cfg.ViewTimeout = 500 * time.Millisecond
	})
	for k := 0; k < 400; k++ {
		tx := types.NewPayment(names[k%4], names[(k+1)%4], 1, uint64(k))
		c.sim.At(simnet.Time(time.Duration(k)*10*time.Millisecond), func() { c.submit(tx) })
	}
	c.sim.At(simnet.Time(50*time.Millisecond), func() { c.nw.SetDown(laggard, true) })
	c.sim.At(simnet.Time(150*time.Millisecond), func() { c.nw.SetDown(laggard, false) })
	c.run(4 * time.Second)

	r, l := c.replicas[0], c.replicas[laggard]
	_, stable := r.Epoch()
	_, lagStable := l.Epoch()
	t.Logf("replica 0: state %v, %d stable epochs; laggard: state %v, %d stable epochs, %d blocks applied by catch-up",
		r.State(), stable, l.State(), lagStable, l.StateTransferApplied())
	if l.StateTransferApplied() == 0 || lagStable < 4 || lagStable != stable {
		t.Fatalf("laggard has %d stable epochs against %d after applying %d blocks by catch-up: never caught up",
			lagStable, stable, l.StateTransferApplied())
	}
}

// TestRecoveredReplicaBeyondReach is the honest side of the engines' bound
// on parked sequence numbers (pbft's maxAhead, 1<<14): replica 3 comes back
// more than that many blocks behind on instance 0. It refuses nothing its
// peers send and parks none of it, so only its catch-up brings the cursor
// back in reach; then it votes again — shown by stopping replica 2
// afterwards, which leaves instance 0 exactly one vote short of a quorum
// without the victim's. Only instance 0 runs at speed (its leader alone
// pulses fast, no view or epoch ever ends), and its leader pauses around
// the recovery so no proposal is in the air while the one catch-up round
// runs.
func TestRecoveredReplicaBeyondReach(t *testing.T) {
	const reach, victim = 1 << 14, 3
	// The subtest keeps the name of the catch-up mode, which every replica
	// now runs in.
	t.Run("stateTransfer=true", func(t *testing.T) {
		c := newTestCluster(t, 4, core.OrthrusMode(), genesisRich("alice"), func(i int, cfg *core.Config) {
			cfg.EpochLen = 1 << 20
			cfg.BatchTimeout = 4 * time.Millisecond
			cfg.ViewTimeout = time.Hour
			if i == 1 || i == 2 {
				cfg.BatchTimeout *= 1e6 // these leaders all but never pulse
			}
		})
		at := func(d time.Duration, fn func()) { c.sim.At(simnet.Time(d), fn) }
		tip := func(i int) uint64 { return c.replicas[i].State()[0] }
		at(100*time.Millisecond, func() {
			c.replicas[victim].Stop()
			c.nw.SetDown(victim, true)
		})
		var behind, atCrashOf2 uint64
		at(70*time.Second, func() { c.replicas[0].SetPulseScale(250) })
		at(70*time.Second+500*time.Millisecond, func() {
			behind = tip(0) - tip(victim)
			c.nw.SetDown(victim, false)
			c.replicas[victim].Recover()
		})
		at(70*time.Second+600*time.Millisecond, func() { c.replicas[0].SetPulseScale(1) })
		at(72*time.Second, func() {
			atCrashOf2 = tip(0)
			c.replicas[2].Stop()
			c.nw.SetDown(2, true)
		})
		c.run(74 * time.Second)

		if behind <= reach {
			t.Fatalf("victim recovered %d blocks behind, want more than %d: the test no longer tests the bound", behind, reach)
		}
		for i, r := range c.replicas {
			if got := r.Rejected(); got != 0 {
				t.Fatalf("replica %d refused %d honest messages", i, got)
			}
		}
		after := tip(0) - atCrashOf2
		t.Logf("behind %d, victim at %d of %d, %d blocks after replica 2 stopped, %d applied by catch-up",
			behind, tip(victim), tip(0), after, c.replicas[victim].StateTransferApplied())
		if tip(victim) != tip(0) || after < 100 {
			t.Fatalf("victim at %d of %d; instance 0 delivered %d blocks on the victim's vote, want it live",
				tip(victim), tip(0), after)
		}
	})
}
