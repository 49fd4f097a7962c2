package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/scenario"
	"repro/internal/types"
	"repro/internal/workload"
)

// replicaView is what one simulated run shows of each of its replicas.
type replicaView struct {
	confirms [][]confirmation  // per replica, in OnConfirm order
	blocks   [][]blockDelivery // per replica, in delivery order
	ledgers  []ledger.Snapshot // per replica, at the end of the run
	census   []LiveSetSample   // the cluster-wide retained-state census
	res      *Result
	slots    int // slots replica 0's resolver ever allocated
}

// confirmation is one replica's OnConfirm call.
type confirmation struct {
	id    types.TxID
	ok    bool
	trace core.StageTrace
}

// blockDelivery is one worker-instance block delivered to one replica.
type blockDelivery struct {
	instance int
	sn       uint64
	digest   types.BlockID
}

// viewRun simulates cfg on the SB analytic chooses, its replicas sharing
// the run's resolver or, with private, each holding a resolver of its own
// as a real replica does, and records what each replica did.
func viewRun(cfg Config, analytic, private bool) *replicaView {
	n := cfg.N
	v := &replicaView{
		confirms: make([][]confirmation, n),
		blocks:   make([][]blockDelivery, n),
		ledgers:  make([]ledger.Snapshot, n),
	}
	stores := make([]*ledger.Store, n)
	var resolver *core.Resolver
	simReplica = func(i int, ccfg *core.Config) {
		if private {
			ccfg.Resolver = core.NewResolver(*ccfg)
		}
		if i == 0 {
			resolver = ccfg.Resolver
		}
		onConfirm, genesis := ccfg.OnConfirm, ccfg.Genesis
		ccfg.OnConfirm = func(tx *types.Transaction, ok bool, st core.StageTrace) {
			v.confirms[i] = append(v.confirms[i], confirmation{tx.ID(), ok, st})
			onConfirm(tx, ok, st)
		}
		ccfg.Genesis = func(st *ledger.Store) {
			stores[i] = st
			genesis(st)
		}
	}
	defer func() { simReplica = nil }()
	cfg.OnBlockDeliver = func(replica, instance int, b *types.Block) {
		v.blocks[replica] = append(v.blocks[replica], blockDelivery{instance, b.SN, b.Digest()})
	}
	cfg.SampleLiveSet = 250 * time.Millisecond
	v.res = run(cfg, analytic)
	v.census = v.res.LiveSetSamples
	v.slots = resolver.Cap()
	for i, st := range stores {
		v.ledgers[i] = st.Snapshot()
	}
	return v
}

// reusedTrace is the paper's mix with multi-payer payments, and two
// transactions submitted again: one while its first submission is in
// flight, one long after it confirmed.
func reusedTrace(txs int) workload.Source {
	gen := workload.New(workload.Config{Accounts: 300, PaymentFraction: 0.6, MultiPayerFraction: 0.3, Seed: 5})
	list := make([]*types.Transaction, txs)
	for i := range list {
		list[i] = gen.Next()
	}
	list[12] = list[10].Clone()
	list[txs-5] = list[40].Clone()
	return workload.NewTrace(list, 0)
}

// TestSharedDirectoryMatchesPrivate: the simulator's replicas share one
// resolver, so each transaction is resolved once per run; a real replica
// resolves against a directory of its own. The resolution is a function of
// the content and the directory alone, so sharing it must change nothing
// any replica does: the same seeded runs with shared and with private
// resolvers give every replica the same OnConfirm stream (ID, outcome and
// five stamps), the same delivered blocks, the same final ledger, and the
// cluster the same retained-state census and Result. The epochs are short,
// so checkpoint GC recycles resolutions throughout.
func TestSharedDirectoryMatchesPrivate(t *testing.T) {
	params := core.Params{BatchSize: 256, BatchTimeout: 100 * time.Millisecond, EpochLen: 8, ViewTimeout: time.Second}
	wan := func(n int, load float64) Config {
		return Config{
			N: n, Protocol: core.OrthrusMode(), Net: WAN,
			Workload: workload.Config{Accounts: 2000, Seed: 3},
			LoadTPS:  load, Duration: 4 * time.Second, Warmup: time.Second, Drain: 3 * time.Second,
			Params: params, NIC: true, Seed: 11,
		}
	}
	crash := wan(10, 800)
	crash.CrashFaults, crash.CrashAt = 1, 2*time.Second

	equivocate := wan(7, 500)
	equivocate.Scenario = scenario.New("equivocate").EquivocateAt(1500*time.Millisecond, 6).Build()

	mixed := wan(7, 500)
	mixed.Source = reusedTrace(1500)
	mixed.TotalTxs = 1500
	mixedISS := mixed
	mixedISS.Protocol = baseline.ISSMode()
	mixedISS.Source = reusedTrace(1500)

	cells := []struct {
		name     string
		cfg      Config
		analytic bool
	}{
		{"message-level n=10 crash", crash, false},
		{"analytic n=32", wan(32, 2000), true},
		{"equivocation n=7", equivocate, false},
		{"reused multi-payer contracts n=7", mixed, false},
		{"reused multi-payer contracts n=7 ISS", mixedISS, false},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			if !c.analytic && c.cfg.analytic() {
				t.Fatal("cell meant for message-level PBFT runs analytic")
			}
			shared := viewRun(c.cfg, c.analytic, false)
			if c.cfg.Source != nil {
				c.cfg.Source = c.cfg.Source.(*workload.Trace).Clone()
			}
			private := viewRun(c.cfg, c.analytic, true)
			res := shared.res
			t.Logf("submitted %d, confirmed %d in the window, %d unconfirmed; %d view changes; slots allocated: %d shared, %d at replica 0's private resolver",
				res.Submitted, res.Confirmed, res.Unconfirmed, res.ViewChanges, shared.slots, private.slots)
			if res.Confirmed == 0 || shared.slots >= res.Submitted {
				t.Fatal("the run confirmed nothing, or checkpoint GC recycled no resolution")
			}
			if err := shared.diff(private); err != nil {
				t.Fatalf("shared resolver differs from private ones: %v", err)
			}
		})
	}
}

// diff reports the first difference between two views.
func (v *replicaView) diff(o *replicaView) error {
	for i := range v.confirms {
		if a, b := v.confirms[i], o.confirms[i]; !slices.Equal(a, b) {
			return fmt.Errorf("replica %d: OnConfirm streams differ (%d and %d calls)", i, len(a), len(b))
		}
		if a, b := v.blocks[i], o.blocks[i]; !slices.Equal(a, b) {
			return fmt.Errorf("replica %d: delivered blocks differ (%d and %d)", i, len(a), len(b))
		}
		if !v.ledgers[i].Equal(o.ledgers[i]) {
			return fmt.Errorf("replica %d: final ledgers differ", i)
		}
	}
	if !slices.Equal(v.census, o.census) {
		return fmt.Errorf("live-set censuses differ:\n%+v\n%+v", v.census, o.census)
	}
	a, b := *v.res, *o.res
	a.LiveSetSamples, b.LiveSetSamples = nil, nil
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("results differ:\n%+v\n%+v", a, b)
	}
	return nil
}
