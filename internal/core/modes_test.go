package core_test

import (
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/types"
)

// TestDQBFTOrdersViaSequencer checks that under DQBFT contract effects are
// identical across replicas even though confirmation flows through the
// dedicated sequencer instance.
func TestDQBFTOrdersViaSequencer(t *testing.T) {
	c := newTestCluster(t, 4, baseline.DQBFTMode(), genesisRich("a", "b", "c", "d"), nil)
	var txs []*types.Transaction
	for i, client := range []types.Key{"a", "b", "c", "d"} {
		tx := types.NewContractCall(client, []types.Key{client}, 1,
			[]types.Op{types.NewSharedAssign("rec", types.Amount(10+i))}, uint64(i))
		txs = append(txs, tx)
		c.submit(tx)
	}
	c.run(8 * time.Second)
	for _, tx := range txs {
		c.requireOutcome(t, tx, true)
	}
	c.requireConsistent(t)
}

// TestMirStallsAllInstancesOnViewChange: after a crash fault, Mir's epoch
// change pauses every instance for a timeout, visibly reducing deliveries
// relative to ISS under the identical fault. Without a view change the two
// are one: internal/experiments' TestISSStandsForMirInFigs3And4.
func TestMirStallsAllInstancesOnViewChange(t *testing.T) {
	run := func(mode core.Mode) uint64 {
		c := newTestCluster(t, 4, mode, genesisRich("alice", "bob"), func(i int, cfg *core.Config) {
			cfg.ViewTimeout = 1 * time.Second
		})
		// Crash replica 3's instance leader at 1s.
		c.sim.At(simnet.Time(1*time.Second), func() {
			c.replicas[3].Stop()
			c.nw.SetDown(3, true)
		})
		for i := 0; i < 20; i++ {
			c.submit(types.NewPayment("alice", "bob", 1, uint64(i)))
		}
		c.run(8 * time.Second)
		// Count blocks delivered at replica 0 across instances.
		var delivered uint64
		for _, sn := range c.replicas[0].State() {
			delivered += sn
		}
		return delivered
	}
	mir := run(baseline.MirMode())
	iss := run(baseline.ISSMode())
	if mir >= iss {
		t.Fatalf("Mir delivered %d >= ISS %d despite global stall", mir, iss)
	}
}

// TestStageTraceOrdering: the five timestamps a replica hands OnConfirm
// must be monotonically non-decreasing for confirmed transactions.
func TestStageTraceOrdering(t *testing.T) {
	var st core.StageTrace
	c := newTestCluster(t, 4, core.OrthrusMode(), genesisRich("alice", "bob"), func(i int, cfg *core.Config) {
		if i != 0 {
			return
		}
		inner := cfg.OnConfirm
		cfg.OnConfirm = func(tx *types.Transaction, success bool, got core.StageTrace) {
			inner(tx, success, got)
			st = got
		}
	})
	c.run(10 * time.Millisecond) // a zero Submit would read as "no trace"
	tx := types.NewPayment("alice", "bob", 5, 1)
	c.submit(tx)
	c.run(3 * time.Second)
	c.requireOutcome(t, tx, true)
	if st.Submit == 0 || st.Received == 0 {
		t.Fatalf("no stage trace handed over: %+v", st)
	}
	if st.Received < st.Submit || st.Proposed < st.Received ||
		st.Delivered < st.Proposed || st.Confirmed < st.Delivered {
		t.Fatalf("stage order violated: %+v", st)
	}
	if st.Confirmed == 0 {
		t.Fatal("confirmed stage missing")
	}
}

// TestPendingGlobalDrains: after quiescence nothing stays stuck in the
// global ordering.
func TestPendingGlobalDrains(t *testing.T) {
	for _, mode := range []core.Mode{core.OrthrusMode(), baseline.LadonMode(), baseline.ISSMode()} {
		c := newTestCluster(t, 4, mode, genesisRich("alice", "bob"), nil)
		for i := 0; i < 10; i++ {
			c.submit(types.NewPayment("alice", "bob", 1, uint64(i)))
		}
		c.run(6 * time.Second)
		for i, r := range c.replicas {
			if p := r.PendingGlobal(); p > 4 { // at most the in-flight window
				t.Fatalf("%s replica %d has %d blocks pending global order", mode.Name, i, p)
			}
		}
	}
}

// TestSubmitInvalidRejected: SubmitTx validates.
func TestSubmitInvalidRejected(t *testing.T) {
	c := newTestCluster(t, 4, core.OrthrusMode(), genesisRich("alice"), nil)
	bad := &types.Transaction{Client: "alice"} // no ops
	if err := c.replicas[0].SubmitTx(bad); err == nil {
		t.Fatal("invalid tx accepted")
	}
}

// TestConfirmedCounters: the replica's counters match the callback totals.
func TestConfirmedCounters(t *testing.T) {
	c := newTestCluster(t, 4, core.OrthrusMode(), genesisRich("alice", "bob"), nil)
	for i := 0; i < 8; i++ {
		c.submit(types.NewPayment("alice", "bob", 1, uint64(i)))
	}
	c.run(5 * time.Second)
	ok, failed := c.replicas[0].Confirmed()
	if int(ok) != len(c.results[0]) || failed != 0 {
		t.Fatalf("counters ok=%d failed=%d, callbacks=%d", ok, failed, len(c.results[0]))
	}
}
