package cluster

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/workload"
)

// TestProcCrashRecoverCatchUp drives the crash -> recover -> state-transfer
// path over the in-process real transport: the StateTransferReq/Resp and
// checkpoint certificate messages cross a real wire codec and land on real
// event-loop goroutines, not the shared simulator. A victim replica stops
// mid-run, misses several epochs of deliveries, recovers, and must repair
// its log through the catch-up protocol — never delivering a slot twice —
// until its log and ledger converge with the live replicas'.
//
// The cluster is built directly rather than through RunReal because the
// test waits for the victim's log to converge with the live replicas', and
// RunReal stops as soon as f+1 replicas have confirmed every submission:
// replicas on transport.Proc node loops, with the crash and recovery
// scheduled on the victim's own loop through its node clock before the
// loops start.
func TestProcCrashRecoverCatchUp(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock run")
	}
	const (
		n      = 4
		victim = 2
		txs    = 120
	)
	proc := transport.NewProc(n)
	gen := workload.New(workload.Config{Accounts: 64, PaymentFraction: 1, Seed: 11})
	genesis := gen.Genesis()

	type slot struct {
		instance int
		sn       uint64
	}
	var mu sync.Mutex
	logs := make([]map[slot]types.BlockID, n)
	counts := make([]map[slot]int, n)
	replicas := make([]*core.Replica, n)
	for i := 0; i < n; i++ {
		i := i
		logs[i] = map[slot]types.BlockID{}
		counts[i] = map[slot]int{}
		ccfg := replicaConfig(Config{
			N: n, Protocol: core.OrthrusMode(), Params: core.Params{EpochLen: 4},
		}.withDefaults(), i, genesis)
		ccfg.OnBlockDeliver = func(instance int, b *types.Block) {
			mu.Lock()
			logs[i][slot{instance, b.SN}] = b.Digest()
			counts[i][slot{instance, b.SN}]++
			mu.Unlock()
		}
		replicas[i] = core.NewReplica(ccfg, proc.Node(i), proc)
	}
	// The outage must stay inside the block-replay repair envelope: peers
	// log one epoch (EpochLen x BatchTimeout = 400 ms) of blocks below
	// the stable floor, so 300 ms down plus millisecond-scale in-process
	// round trips is always repairable. Scheduled before Start, while the
	// victim's clock is still single-threaded.
	vs := replicas[victim]
	proc.Node(victim).CallAt(types.Time(400*time.Millisecond), func(_, _ any) { vs.Stop() }, nil, nil)
	proc.Node(victim).CallAt(types.Time(700*time.Millisecond), func(_, _ any) { vs.Recover() }, nil, nil)

	for _, r := range replicas {
		r.Start()
	}
	proc.Start(time.Now())
	defer proc.Stop()

	// Feed payments through the crash window so tx-carrying blocks span
	// it: outage [400 ms, 700 ms), submissions over ~2.4 s.
	go func() {
		for k := 0; k < txs; k++ {
			tx := gen.Next()
			tx.ID() // warm the digest memo before sharing across loops
			for id := 0; id < n; id++ {
				proc.InjectTo(n, []int{id}, &core.SubmitMsg{Tx: tx})
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	// Quiescence: all four delivery logs identical at one sampling instant
	// (the victim's can only match once its gap is fully repaired) and far
	// enough along that the crash window is behind them.
	aligned := func() bool {
		mu.Lock()
		defer mu.Unlock()
		if len(logs[0]) < 60 {
			return false
		}
		for i := 1; i < n; i++ {
			if len(logs[i]) != len(logs[0]) {
				return false
			}
			for k, d := range logs[0] {
				if got, ok := logs[i][k]; !ok || got != d {
					return false
				}
			}
		}
		return true
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && !aligned() {
		time.Sleep(5 * time.Millisecond)
	}
	proc.Stop() // loops exited: replica state is safe to read directly
	if !aligned() {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("logs never converged: sizes %d/%d/%d/%d",
			len(logs[0]), len(logs[1]), len(logs[2]), len(logs[3]))
	}
	if got := replicas[victim].StateTransferApplied(); got == 0 {
		t.Fatal("victim repaired its gap without the catch-up protocol")
	}
	for i, c := range counts {
		for k, v := range c {
			if v > 1 {
				t.Fatalf("replica %d delivered instance %d seq %d %d times: pre-checkpoint replay",
					i, k.instance, k.sn, v)
			}
		}
	}
	base := replicas[0].Store().Snapshot()
	for i := 1; i < n; i++ {
		if !replicas[i].Store().Snapshot().Equal(base) {
			t.Fatalf("replica %d ledger diverged", i)
		}
	}
}
