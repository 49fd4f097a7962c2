package core

import (
	"repro/internal/partition"
	"repro/internal/types"
)

// SubmitRouter resolves which replicas a client sends a transaction to
// (Sec. V-B): the initial leader of every payer bucket plus the f replicas
// after it, so a censoring leader cannot hide the transaction, and replica
// 0, the tracing observer. m = n, so instance i's initial leader is
// replica i. A transaction without payer ops routes by its client key.
//
// A router serves one client (one goroutine, or the single-threaded
// simulation): it reuses its target buffer and memoizes the key-to-bucket
// assignment, which hashes the key with sha256 while an open-loop client
// resolves the same few thousand account keys for a whole run.
type SubmitRouter struct {
	n, f    int
	bucket  map[types.Key]int
	seen    []bool // dedup scratch indexed by replica; all false between calls
	targets []int
}

// NewSubmitRouter builds a router for n replicas tolerating f faults.
func NewSubmitRouter(n, f int) *SubmitRouter {
	return &SubmitRouter{
		n: n, f: f,
		bucket:  make(map[types.Key]int, 1024),
		seen:    make([]bool, n),
		targets: make([]int, 0, 2*(f+1)+1),
	}
}

// Targets returns the distinct replicas tx is submitted to, observer first,
// then each payer's leader run in op order. The slice is reused by the next
// call.
func (r *SubmitRouter) Targets(tx *types.Transaction) []int {
	r.targets = r.targets[:0]
	r.add(0)
	hasPayer := false
	for _, op := range tx.Ops {
		if op.IsPayerOp() {
			hasPayer = true
			r.addLeaders(op.Key)
		}
	}
	if !hasPayer {
		r.addLeaders(tx.Client)
	}
	for _, t := range r.targets {
		r.seen[t] = false
	}
	return r.targets
}

// addLeaders adds k's bucket leader and its f successors.
func (r *SubmitRouter) addLeaders(k types.Key) {
	lead, ok := r.bucket[k]
	if !ok {
		lead = partition.Assign(k, r.n)
		r.bucket[k] = lead
	}
	for i := 0; i <= r.f; i++ {
		r.add((lead + i) % r.n)
	}
}

func (r *SubmitRouter) add(replica int) {
	if !r.seen[replica] {
		r.seen[replica] = true
		r.targets = append(r.targets, replica)
	}
}
