package cluster

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/types"
	"repro/internal/workload"
)

// TestRealPathAllocsPerTransaction bounds what one transaction costs the
// allocator end to end on the real path: a whole RunReal at n = 4 — client
// submission, wire encode, framing, per-replica decode, PBFT, escrow,
// global order, confirmation, the harness's books — on a scripted paper-mix
// list. Decoding carves from chunks, a replica's message to itself skips the
// codec and the books are sized once, so a per-transaction or per-message
// object anywhere on that path shows as one or more (22 before the
// Decoder). The list is built before the run and replayed as a trace, so
// generating the input is outside the count; building the cluster is inside.
func TestRealPathAllocsPerTransaction(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock run")
	}
	const txs = 6000
	gen := workload.New(workload.Config{Accounts: 256, Seed: 11})
	list := make([]*types.Transaction, txs)
	for i := range list {
		list[i] = gen.Next()
		list[i].ID()
	}
	cfg := Config{
		N:        4,
		Protocol: core.OrthrusMode(),
		LoadTPS:  20000,
		Warmup:   100 * time.Millisecond,
		Duration: time.Second,
		Drain:    10 * time.Second,
		Params:   core.Params{BatchSize: 1024, BatchTimeout: 20 * time.Millisecond},
		Source:   workload.NewTrace(list, 0),
		TotalTxs: txs,
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res := RunReal(cfg)
	runtime.ReadMemStats(&after)
	if res.Submitted != txs || res.Unconfirmed != 0 || res.Aborted != 0 {
		t.Fatalf("submitted %d, unconfirmed %d, aborted %d of %d", res.Submitted, res.Unconfirmed, res.Aborted, txs)
	}
	if perTx := float64(after.Mallocs-before.Mallocs) / txs; perTx > 6 {
		t.Fatalf("%.1f allocations per confirmed transaction, want at most 6", perTx)
	} else {
		t.Logf("%.2f allocations per confirmed transaction", perTx)
	}
}
