package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/types"
)

// TestSubmitRouterTargets pins the Sec. V-B client routing every harness
// and the daemon share: the observer first, then each payer bucket's leader
// with its f successors (wrapping, ascending bucket order, no replica
// twice), and the client's own bucket when the transaction names no payer.
func TestSubmitRouterTargets(t *testing.T) {
	const n, f = 7, 2
	run := func(lead int) []int { // observer, then lead..lead+f, deduplicated
		out := []int{0}
		for k := 0; k <= f; k++ {
			if r := (lead + k) % n; r != 0 {
				out = append(out, r)
			}
		}
		return out
	}
	r := core.NewSubmitRouter(n, f)

	pay := types.NewPayment("alice", "bob", 5, 1)
	if got, want := r.Targets(pay), run(partition.Assign("alice", n)); !reflect.DeepEqual(got, want) {
		t.Fatalf("payment targets %v, want %v", got, want)
	}

	multi := types.NewMultiPayment("carol", []types.Transfer{
		{From: "carol", To: "bob", Amount: 1},
		{From: "dave", To: "bob", Amount: 1},
	}, 1)
	got := append([]int(nil), r.Targets(multi)...)
	seen := map[int]bool{}
	for _, id := range got {
		if seen[id] {
			t.Fatalf("multi-payer targets %v repeat replica %d", got, id)
		}
		seen[id] = true
	}
	for _, payer := range []types.Key{"carol", "dave"} {
		for _, id := range run(partition.Assign(payer, n)) {
			if !seen[id] {
				t.Fatalf("multi-payer targets %v miss replica %d of payer %s", got, id, payer)
			}
		}
	}
	if got[0] != 0 {
		t.Fatalf("observer is not first in %v", got)
	}

	noPayer := &types.Transaction{Client: "erin", Ops: []types.Op{types.NewSharedAssign("rec", 1)}}
	if got, want := r.Targets(noPayer), run(partition.Assign("erin", n)); !reflect.DeepEqual(got, want) {
		t.Fatalf("payer-less targets %v, want %v (by client key)", got, want)
	}
	// The memo and the reused scratch do not leak between calls.
	if got, want := r.Targets(pay), run(partition.Assign("alice", n)); !reflect.DeepEqual(got, want) {
		t.Fatalf("repeat payment targets %v, want %v", got, want)
	}
}
