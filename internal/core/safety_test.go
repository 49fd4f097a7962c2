package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/wire"
	"repro/internal/workload"
)

// randomWorkloadCluster runs a randomized mixed workload over a jittery WAN
// and returns the cluster after quiescence. Used by the safety properties.
func randomWorkloadCluster(t *testing.T, seed int64, mode core.Mode) (*testCluster, []*types.Transaction) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var names []types.Key
	for i := 0; i < 10; i++ {
		names = append(names, types.Key(fmt.Sprintf("acct%d", i)))
	}
	c := newTestClusterSeed(t, 4, mode, genesisRich(names...), nil, seed)
	var txs []*types.Transaction
	for i := 0; i < 30; i++ {
		from := names[rng.Intn(len(names))]
		to := names[rng.Intn(len(names))]
		var tx *types.Transaction
		switch rng.Intn(5) {
		case 0, 1, 2:
			tx = types.NewPayment(from, to, types.Amount(rng.Intn(20)+1), uint64(i))
		case 3:
			other := names[rng.Intn(len(names))]
			tx = types.NewMultiPayment(from, []types.Transfer{
				{From: from, To: to, Amount: types.Amount(rng.Intn(10) + 1)},
				{From: other, To: to, Amount: types.Amount(rng.Intn(10) + 1)},
			}, uint64(i))
		case 4:
			tx = types.NewContractCall(from, []types.Key{from}, 1,
				[]types.Op{types.NewSharedAssign(types.Key(fmt.Sprintf("rec%d", rng.Intn(3))), types.Amount(rng.Intn(100)))}, uint64(i))
		}
		txs = append(txs, tx)
		// Stagger submissions randomly over the first two seconds. tx is
		// declared fresh each iteration, so the closure capture is safe.
		at := simnet.Time(time.Duration(rng.Intn(2000)) * time.Millisecond)
		c.sim.At(at, func() {
			tx.SubmitNS = int64(c.sim.Now())
			for _, r := range c.replicas {
				_ = r.SubmitTx(tx)
			}
		})
	}
	c.run(15 * time.Second)
	return c, txs
}

// TestSafetyUnderRandomSchedules is Theorem 1 as a property test: across
// random workloads, jittery delivery schedules and every protocol mode, all
// replicas that confirmed the full workload hold identical object values.
func TestSafetyUnderRandomSchedules(t *testing.T) {
	modes := []core.Mode{core.OrthrusMode(), baseline.ISSMode(), baseline.LadonMode(), baseline.DQBFTMode()}
	for seed := int64(1); seed <= 5; seed++ {
		for _, mode := range modes {
			mode := mode
			t.Run(fmt.Sprintf("%s/seed=%d", mode.Name, seed), func(t *testing.T) {
				c, txs := randomWorkloadCluster(t, seed, mode)
				// Every tx confirmed at every replica with the same outcome.
				for _, tx := range txs {
					want, ok := c.results[0][tx.ID()]
					if !ok {
						t.Fatalf("replica 0 never confirmed tx %s", tx.ID())
					}
					for i := 1; i < len(c.replicas); i++ {
						got, ok := c.results[i][tx.ID()]
						if !ok || got != want {
							t.Fatalf("replica %d outcome %v/%v vs %v for tx %s", i, got, ok, want, tx.ID())
						}
					}
				}
				c.requireConsistent(t)
				// No funds stuck in escrow after quiescence.
				for i, r := range c.replicas {
					if n := r.Store().EscrowCount(); n != 0 {
						t.Fatalf("replica %d leaked %d escrows", i, n)
					}
				}
			})
		}
	}
}

// TestConservationUnderRandomSchedules: total owned value changes only by
// burnt contract fees — never created or destroyed by payments (Lemma 2's
// conservation corollary). It holds for Orthrus with and without multi-payer
// splitting — unsplit, every payer leg escrows on the one route entry — and
// for a baseline that escrows at the global-log position.
func TestConservationUnderRandomSchedules(t *testing.T) {
	noSplit := core.OrthrusMode()
	noSplit.Name = "Orthrus-noSplit"
	noSplit.SplitMultiPayer = false
	for _, mode := range []core.Mode{core.OrthrusMode(), noSplit, baseline.ISSMode()} {
		for seed := int64(10); seed <= 14; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", mode.Name, seed), func(t *testing.T) {
				c, txs := randomWorkloadCluster(t, seed, mode)
				fees := types.Amount(0)
				for _, tx := range txs {
					if tx.Kind() == types.Contract && c.results[0][tx.ID()] {
						fees += tx.TotalDebit() - tx.TotalCredit()
					}
				}
				want := types.Amount(10*1000) - fees
				if got := c.replicas[0].Store().TotalOwned(); got != want {
					t.Fatalf("total owned %d, want %d", got, want)
				}
			})
		}
	}
}

// blockSlot identifies one SB delivery slot across the cluster.
type blockSlot struct {
	instance int
	seq      uint64
}

// runAttackPreset runs one Byzantine attack preset (see
// scenario.AttackNames) on an n-replica cluster and returns the run result
// plus every replica's delivery log, keyed (instance, seq) -> replica ->
// block digest. The censorship detector is armed at 8 blocks so a
// censoring leader is voted out well inside the 6-second window.
func runAttackPreset(t *testing.T, preset string, n int, net cluster.NetProfile, seed int64) (*cluster.Result, map[blockSlot]map[int]types.BlockID) {
	t.Helper()
	const dur = 6 * time.Second
	scn, err := scenario.Preset(preset, n, dur, seed)
	if err != nil {
		t.Fatal(err)
	}
	delivered := map[blockSlot]map[int]types.BlockID{}
	res := cluster.Run(cluster.Config{
		N:        n,
		Protocol: core.OrthrusMode(),
		Net:      net,
		Scenario: scn,
		Workload: workload.Config{Accounts: 500, Seed: seed},
		LoadTPS:  300,
		Duration: dur,
		Warmup:   500 * time.Millisecond,
		Drain:    dur,
		Params: core.Params{
			BatchSize:        64,
			ViewTimeout:      time.Second,
			CensorshipBlocks: 8,
		},
		NIC:  true,
		Seed: seed,
		OnBlockDeliver: func(replica, instance int, b *types.Block) {
			slot := blockSlot{instance: instance, seq: b.SN}
			if delivered[slot] == nil {
				delivered[slot] = map[int]types.BlockID{}
			}
			delivered[slot][replica] = b.Digest()
		},
	})
	return res, delivered
}

// victimsOf extracts the attacked replica set from a preset's timeline.
func victimsOf(scn *scenario.Scenario) map[int]bool {
	victims := map[int]bool{}
	for _, e := range scn.Events {
		switch e.Kind {
		case scenario.Equivocate, scenario.Censor, scenario.MuteLeader:
			for _, id := range e.Nodes {
				victims[id] = true
			}
		}
	}
	return victims
}

// requireSlotAgreement is the paper's safety property over a delivery log:
// no two replicas commit conflicting blocks for the same (instance, seq).
// The check covers every replica — a Byzantine leader misbehaves on the
// proposal side only, so its own deliveries must agree with the honest
// quorum too.
func requireSlotAgreement(t *testing.T, delivered map[blockSlot]map[int]types.BlockID) {
	t.Helper()
	slots := 0
	for slot, byReplica := range delivered {
		var want types.BlockID
		first := true
		for replica, digest := range byReplica {
			if first {
				want, first = digest, false
				continue
			}
			if digest != want {
				t.Fatalf("conflicting commits at instance %d seq %d: replica %d delivered %s, another %s",
					slot.instance, slot.seq, replica, digest, want)
			}
		}
		slots++
	}
	if slots == 0 {
		t.Fatal("delivery log is empty: nothing committed anywhere")
	}
}

// TestAttackPresetSafety drives every Byzantine attack preset across seeds
// and asserts the safety property — no two replicas commit conflicting
// blocks for the same (instance, seq) — plus recovery: the attack phase
// still confirms transactions (the view-change machinery rotates the
// victims out) and the attack provokes at least one view change.
func TestAttackPresetSafety(t *testing.T) {
	for _, preset := range scenario.AttackNames() {
		for seed := int64(1); seed <= 2; seed++ {
			preset, seed := preset, seed
			t.Run(fmt.Sprintf("%s/seed=%d", preset, seed), func(t *testing.T) {
				t.Parallel()
				res, delivered := runAttackPreset(t, preset, 7, cluster.LAN, seed)
				requireSlotAgreement(t, delivered)
				if res.ViewChanges == 0 {
					t.Fatal("attack provoked no view change")
				}
				if len(res.Phases) != 2 {
					t.Fatalf("want baseline+attack phases, got %+v", res.Phases)
				}
				if att := res.Phases[1]; att.Confirmed == 0 {
					t.Fatalf("no confirmations after attack onset: %+v", res.Phases)
				}
			})
		}
	}
}

// TestViewChangeStormSafetyWAN is the paper-shaped stress cell: a
// view-change storm mutes f leaders at once on a 10-replica WAN cluster.
// Safety must hold across the storm and throughput must come back once the
// storm's view changes rotate the muted leaders out.
func TestViewChangeStormSafetyWAN(t *testing.T) {
	res, delivered := runAttackPreset(t, scenario.ViewChangeStorm, 10, cluster.WAN, 1)
	requireSlotAgreement(t, delivered)
	if res.ViewChanges == 0 {
		t.Fatal("storm provoked no view change")
	}
	if att := res.Phases[len(res.Phases)-1]; att.Confirmed == 0 {
		t.Fatalf("cluster never recovered from the storm: %+v", res.Phases)
	}
}

// TestAttackPresetVictimsAreLeaderRoles pins the preset generator's
// contract: victims never include replica 0 (the metrics observer) and the
// storm attacks exactly f replicas.
func TestAttackPresetVictimsAreLeaderRoles(t *testing.T) {
	const n, f = 10, 3
	for _, preset := range scenario.AttackNames() {
		scn, err := scenario.Preset(preset, n, 10*time.Second, 7)
		if err != nil {
			t.Fatal(err)
		}
		victims := victimsOf(scn)
		if victims[0] {
			t.Fatalf("%s: replica 0 picked as victim", preset)
		}
		want := 1
		if preset == scenario.ViewChangeStorm {
			want = f
		}
		if len(victims) != want {
			t.Fatalf("%s: %d victims, want %d", preset, len(victims), want)
		}
	}
}

// modeledSize is what cluster.Run's simulated network charges a message at
// the default transaction size.
func modeledSize(msg any) int { return wire.ModeledSize(msg, core.Params{}.WithDefaults().TxSize) }

// newTestClusterSeed is newTestCluster with an explicit simulation seed so
// property tests explore different jitter schedules.
func newTestClusterSeed(t *testing.T, n int, mode core.Mode, genesis func(*ledger.Store), mutate func(i int, cfg *core.Config), seed int64) *testCluster {
	t.Helper()
	c := &testCluster{sim: simnet.New(seed)}
	c.nw = simnet.NewNetwork(c.sim, n, simnet.NewWAN(), modeledSize)
	c.results = make([]map[types.TxID]bool, n)
	for i := 0; i < n; i++ {
		i := i
		c.results[i] = make(map[types.TxID]bool)
		cfg := core.Config{
			N: n, F: (n - 1) / 3, ID: i, M: n,
			Mode: mode,
			Params: core.Params{
				BatchSize:    8,
				BatchTimeout: 50 * time.Millisecond,
				ViewTimeout:  5 * time.Second,
				EpochLen:     16,
			},
			Genesis: genesis,
			OnConfirm: func(tx *types.Transaction, success bool, _ core.StageTrace) {
				c.results[i][tx.ID()] = success
			},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		c.replicas = append(c.replicas, core.NewReplica(cfg, simnet.On(c.sim, i), c.nw))
	}
	for _, r := range c.replicas {
		r.Start()
	}
	return c
}
