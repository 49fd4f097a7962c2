package core_test

import (
	"fmt"
	"testing"
	"time"

	_ "repro/internal/baseline" // registers the baselines TestBaselineProtocolsConfirmAndAgree ranges over
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/ledger"
	"repro/internal/registry"
	"repro/internal/simnet"
	"repro/internal/types"
)

// testCluster wires n replicas of one protocol over a fixed-latency network.
type testCluster struct {
	sim      *simnet.Sim
	nw       *faultnet.Network
	replicas []*core.Replica
	results  []map[types.TxID]bool // per-replica confirm outcomes
}

func newTestCluster(t *testing.T, n int, mode core.Mode, genesis func(*ledger.Store), mutate func(i int, cfg *core.Config)) *testCluster {
	t.Helper()
	c := &testCluster{sim: simnet.New(1)}
	c.nw = faultnet.Wrap(simnet.NewNetwork(c.sim, n, simnet.NewFixed(5*time.Millisecond), nil), n)
	c.results = make([]map[types.TxID]bool, n)
	for i := 0; i < n; i++ {
		i := i
		c.results[i] = make(map[types.TxID]bool)
		cfg := core.Config{
			N: n, F: (n - 1) / 3, ID: i, M: n,
			Mode: mode,
			Params: core.Params{
				BatchSize:    8,
				BatchTimeout: 30 * time.Millisecond,
				ViewTimeout:  2 * time.Second,
				EpochLen:     8,
			},
			Genesis: genesis,
			OnConfirm: func(tx *types.Transaction, success bool, _ core.StageTrace) {
				if _, dup := c.results[i][tx.ID()]; dup {
					t.Errorf("replica %d confirmed tx %s twice", i, tx.ID())
				}
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

// submit hands a tx to every replica at the current virtual time.
func (c *testCluster) submit(tx *types.Transaction) {
	tx.SubmitNS = int64(c.sim.Now())
	for _, r := range c.replicas {
		_ = r.SubmitTx(tx)
	}
}

func (c *testCluster) run(d time.Duration) { c.sim.Run(c.sim.Now() + simnet.Time(d)) }

// requireOutcome asserts every replica confirmed the tx with the outcome.
func (c *testCluster) requireOutcome(t *testing.T, tx *types.Transaction, want bool) {
	t.Helper()
	for i, res := range c.results {
		got, ok := res[tx.ID()]
		if !ok {
			t.Fatalf("replica %d never confirmed tx %s", i, tx.ID())
		}
		if got != want {
			t.Fatalf("replica %d outcome %v, want %v for tx %s", i, got, want, tx.ID())
		}
	}
}

// requireConsistent asserts all replicas hold identical ledger snapshots.
func (c *testCluster) requireConsistent(t *testing.T) {
	t.Helper()
	base := c.replicas[0].Store().Snapshot()
	for i := 1; i < len(c.replicas); i++ {
		if !c.replicas[i].Store().Snapshot().Equal(base) {
			t.Fatalf("replica %d snapshot differs from replica 0", i)
		}
	}
}

func genesisRich(names ...types.Key) func(*ledger.Store) {
	return func(st *ledger.Store) {
		for _, n := range names {
			st.Credit(n, 1000)
		}
	}
}

func TestOrthrusSimplePayment(t *testing.T) {
	c := newTestCluster(t, 4, core.OrthrusMode(), genesisRich("alice", "bob"), nil)
	tx := types.NewPayment("alice", "bob", 100, 1)
	c.submit(tx)
	c.run(3 * time.Second)
	c.requireOutcome(t, tx, true)
	c.requireConsistent(t)
	st := c.replicas[0].Store()
	if st.Balance("alice") != 900 || st.Balance("bob") != 1100 {
		t.Fatalf("balances alice=%d bob=%d", st.Balance("alice"), st.Balance("bob"))
	}
	if st.EscrowCount() != 0 {
		t.Fatal("escrows leaked")
	}
}

func TestOrthrusMultiPayerAtomicCommit(t *testing.T) {
	c := newTestCluster(t, 4, core.OrthrusMode(), genesisRich("alice", "bob", "carol"), nil)
	// The paper's Appendix B tx1: Alice and Bob each pay 1 to Carol; the
	// two legs run in different instances and commit atomically.
	tx := types.NewMultiPayment("alice", []types.Transfer{
		{From: "alice", To: "carol", Amount: 10},
		{From: "bob", To: "carol", Amount: 20},
	}, 1)
	c.submit(tx)
	c.run(3 * time.Second)
	c.requireOutcome(t, tx, true)
	c.requireConsistent(t)
	st := c.replicas[0].Store()
	if st.Balance("alice") != 990 || st.Balance("bob") != 980 || st.Balance("carol") != 1030 {
		t.Fatalf("balances %d/%d/%d", st.Balance("alice"), st.Balance("bob"), st.Balance("carol"))
	}
}

func TestOrthrusContractTransaction(t *testing.T) {
	c := newTestCluster(t, 4, core.OrthrusMode(), genesisRich("alice", "bob"), nil)
	tx := types.NewContractCall("alice", []types.Key{"alice", "bob"}, 5,
		[]types.Op{types.NewSharedAssign("record", 42)}, 1)
	c.submit(tx)
	c.run(4 * time.Second)
	c.requireOutcome(t, tx, true)
	c.requireConsistent(t)
	st := c.replicas[0].Store()
	if st.SharedValue("record") != 42 {
		t.Fatalf("shared record = %d", st.SharedValue("record"))
	}
	if st.Balance("alice") != 995 || st.Balance("bob") != 995 {
		t.Fatalf("fees not charged: %d/%d", st.Balance("alice"), st.Balance("bob"))
	}
}

func TestOrthrusDependentPayments(t *testing.T) {
	// Bob starts empty; Alice pays Bob, then Bob pays Carol. The second
	// payment is only feasible after the first credit lands — the leader
	// re-queues it until then (cross-instance partial-order dependency).
	c := newTestCluster(t, 4, core.OrthrusMode(), func(st *ledger.Store) {
		st.Credit("alice", 100)
	}, nil)
	tx1 := types.NewPayment("alice", "bob", 50, 1)
	tx2 := types.NewPayment("bob", "carol", 30, 1)
	c.submit(tx1)
	c.submit(tx2)
	c.run(6 * time.Second)
	c.requireOutcome(t, tx1, true)
	c.requireOutcome(t, tx2, true)
	c.requireConsistent(t)
	st := c.replicas[0].Store()
	if st.Balance("alice") != 50 || st.Balance("bob") != 20 || st.Balance("carol") != 30 {
		t.Fatalf("balances %d/%d/%d", st.Balance("alice"), st.Balance("bob"), st.Balance("carol"))
	}
}

func TestOrthrusConflictingPaymentsSamePayer(t *testing.T) {
	// Alice has 100 and issues two 70-token payments: exactly one succeeds
	// (the other stays infeasible and unconfirmed), never both.
	c := newTestCluster(t, 4, core.OrthrusMode(), func(st *ledger.Store) {
		st.Credit("alice", 100)
	}, nil)
	tx1 := types.NewPayment("alice", "bob", 70, 1)
	tx2 := types.NewPayment("alice", "carol", 70, 2)
	c.submit(tx1)
	c.submit(tx2)
	c.run(4 * time.Second)
	c.requireConsistent(t)
	st := c.replicas[0].Store()
	if st.Balance("alice") != 30 {
		t.Fatalf("alice = %d, want exactly one 70 spent", st.Balance("alice"))
	}
	if st.Balance("bob")+st.Balance("carol") != 70 {
		t.Fatalf("transferred %d, want 70", st.Balance("bob")+st.Balance("carol"))
	}
}

func TestOrthrusPaymentNotBlockedByContract(t *testing.T) {
	// Solution II: a contract transaction and a later payment share payer
	// Alice. The payment must confirm from the partial log even though the
	// contract waits for the global log. We verify both succeed and that
	// escrow kept Alice's spending consistent.
	c := newTestCluster(t, 4, core.OrthrusMode(), genesisRich("alice", "bob"), nil)
	contract := types.NewContractCall("alice", []types.Key{"alice"}, 100,
		[]types.Op{types.NewSharedAssign("rec", 7)}, 1)
	pay := types.NewPayment("alice", "bob", 200, 2)
	c.submit(contract)
	c.submit(pay)
	c.run(4 * time.Second)
	c.requireOutcome(t, contract, true)
	c.requireOutcome(t, pay, true)
	c.requireConsistent(t)
	st := c.replicas[0].Store()
	if st.Balance("alice") != 700 {
		t.Fatalf("alice = %d, want 700", st.Balance("alice"))
	}
}

func TestBaselineProtocolsConfirmAndAgree(t *testing.T) {
	for _, p := range registry.All() {
		mode := p.New()
		t.Run(p.Name, func(t *testing.T) {
			c := newTestCluster(t, 4, mode, genesisRich("alice", "bob", "carol"), nil)
			var txs []*types.Transaction
			for i := 0; i < 6; i++ {
				txs = append(txs, types.NewPayment("alice", "bob", 10, uint64(i)))
			}
			con := types.NewContractCall("carol", []types.Key{"carol"}, 1,
				[]types.Op{types.NewSharedAssign("rec", 5)}, 100)
			txs = append(txs, con)
			for _, tx := range txs {
				c.submit(tx)
			}
			c.run(6 * time.Second)
			for _, tx := range txs {
				c.requireOutcome(t, tx, true)
			}
			c.requireConsistent(t)
			st := c.replicas[0].Store()
			if st.Balance("alice") != 940 || st.Balance("bob") != 1060 {
				t.Fatalf("%s balances %d/%d", mode.Name, st.Balance("alice"), st.Balance("bob"))
			}
			if st.SharedValue("rec") != 5 {
				t.Fatalf("%s shared value %d", mode.Name, st.SharedValue("rec"))
			}
		})
	}
}

func TestContractOrderingConsistentAcrossReplicas(t *testing.T) {
	// Several contract transactions assign different values to one shared
	// record from different clients/instances; every replica must end with
	// the same final value (Observation 3 / Lemma 3).
	c := newTestCluster(t, 4, core.OrthrusMode(), genesisRich("a", "b", "c", "d"), nil)
	var txs []*types.Transaction
	for i, client := range []types.Key{"a", "b", "c", "d"} {
		tx := types.NewContractCall(client, []types.Key{client}, 1,
			[]types.Op{types.NewSharedAssign("rec", types.Amount(100+i))}, uint64(i))
		txs = append(txs, tx)
		c.submit(tx)
	}
	c.run(6 * time.Second)
	for _, tx := range txs {
		c.requireOutcome(t, tx, true)
	}
	c.requireConsistent(t)
	v := c.replicas[0].Store().SharedValue("rec")
	if v < 100 || v > 103 {
		t.Fatalf("final shared value %d not one of the assigned values", v)
	}
}

func TestEpochCheckpointAdvances(t *testing.T) {
	c := newTestCluster(t, 4, core.OrthrusMode(), genesisRich("alice", "bob"), nil)
	for i := 0; i < 20; i++ {
		c.submit(types.NewPayment("alice", "bob", 1, uint64(i)))
	}
	c.run(12 * time.Second)
	for i, r := range c.replicas {
		_, stable := r.Epoch()
		if stable == 0 {
			t.Fatalf("replica %d never stabilized a checkpoint", i)
		}
	}
}

func TestMixedWorkloadManyClients(t *testing.T) {
	var names []types.Key
	for i := 0; i < 12; i++ {
		names = append(names, types.Key(fmt.Sprintf("acct%d", i)))
	}
	c := newTestCluster(t, 4, core.OrthrusMode(), genesisRich(names...), nil)
	var txs []*types.Transaction
	for i := 0; i < 40; i++ {
		from := names[i%len(names)]
		to := names[(i+3)%len(names)]
		var tx *types.Transaction
		switch i % 4 {
		case 0, 1:
			tx = types.NewPayment(from, to, 5, uint64(i))
		case 2:
			tx = types.NewMultiPayment(from, []types.Transfer{
				{From: from, To: to, Amount: 2},
				{From: names[(i+5)%len(names)], To: to, Amount: 3},
			}, uint64(i))
		case 3:
			tx = types.NewContractCall(from, []types.Key{from}, 1,
				[]types.Op{types.NewSharedAssign(types.Key(fmt.Sprintf("rec%d", i%3)), types.Amount(i))}, uint64(i))
		}
		txs = append(txs, tx)
		c.submit(tx)
	}
	c.run(10 * time.Second)
	for _, tx := range txs {
		c.requireOutcome(t, tx, true)
	}
	c.requireConsistent(t)
	// Conservation: total owned tokens unchanged (12 accounts x 1000 minus
	// contract fees, which execGlobal burns as debits without credits:
	// 10 contract txs x 1 fee).
	total := c.replicas[0].Store().TotalOwned()
	if total != 12*1000-10 {
		t.Fatalf("total owned = %d, want %d", total, 12*1000-10)
	}
}

func TestOrthrusPaymentFasterThanContract(t *testing.T) {
	// The fast path must confirm a payment strictly before a concurrently
	// submitted contract confirms via the global log (on average, and in
	// this deterministic setup, always).
	var payAt, conAt simnet.Time
	c := newTestCluster(t, 4, core.OrthrusMode(), genesisRich("alice", "bob", "x"), func(i int, cfg *core.Config) {
		if i != 0 {
			return
		}
		inner := cfg.OnConfirm
		cfg.OnConfirm = func(tx *types.Transaction, success bool, st core.StageTrace) {
			inner(tx, success, st)
			if tx.Kind() == types.Payment {
				payAt = st.Confirmed
			} else {
				conAt = st.Confirmed
			}
		}
	})
	pay := types.NewPayment("alice", "bob", 1, 1)
	con := types.NewContractCall("x", []types.Key{"x"}, 1,
		[]types.Op{types.NewSharedAssign("rec", 1)}, 2)
	c.submit(pay)
	c.submit(con)
	c.run(5 * time.Second)
	c.requireOutcome(t, pay, true)
	c.requireOutcome(t, con, true)
	if payAt == 0 || conAt == 0 || payAt > conAt {
		t.Fatalf("payment confirmed at %v, contract at %v; fast path not faster", payAt, conAt)
	}
}

func TestDeterministicCluster(t *testing.T) {
	run := func() types.Amount {
		c := newTestCluster(t, 4, core.OrthrusMode(), genesisRich("alice", "bob"), nil)
		for i := 0; i < 10; i++ {
			c.submit(types.NewPayment("alice", "bob", types.Amount(i+1), uint64(i)))
		}
		c.run(5 * time.Second)
		return c.replicas[0].Store().Balance("bob")
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}
