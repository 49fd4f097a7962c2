package core

import (
	"repro/internal/partition"
	"repro/internal/types"
)

// SubmitRouter resolves which replicas a client sends a transaction to
// (Sec. V-B): the initial leader of every bucket of its partition.Route
// plus the f replicas after it, so a censoring leader cannot hide the
// transaction, and replica 0, the tracing observer. m = n, so instance i's
// initial leader is replica i.
//
// A router serves one client (one goroutine, or the single-threaded
// simulation): it reuses its route and target buffers and memoizes the
// key-to-bucket assignment, which hashes the key with sha256 while an
// open-loop client resolves the same few thousand account keys for a whole
// run.
type SubmitRouter struct {
	n, f    int
	bucket  map[types.Key]int32
	seen    []bool // dedup scratch indexed by replica; all false between calls
	route   []int32
	targets []int
}

// NewSubmitRouter builds a router for n replicas tolerating f faults.
func NewSubmitRouter(n, f int) *SubmitRouter {
	return &SubmitRouter{
		n: n, f: f,
		bucket:  make(map[types.Key]int32, 1024),
		seen:    make([]bool, n),
		targets: make([]int, 0, 2*(f+1)+1),
	}
}

// Targets returns the distinct replicas tx is submitted to, observer first,
// then each route bucket's leader run in ascending bucket order. The slice
// is reused by the next call.
func (r *SubmitRouter) Targets(tx *types.Transaction) []int {
	r.route = partition.Route(r.route[:0], tx, func(i int) int32 {
		k := tx.Client
		if i >= 0 {
			k = tx.Ops[i].Key
		}
		b, ok := r.bucket[k]
		if !ok {
			b = int32(partition.Assign(k, r.n))
			r.bucket[k] = b
		}
		return b
	})
	r.targets = r.targets[:0]
	r.add(0)
	for _, lead := range r.route {
		for i := 0; i <= r.f; i++ {
			r.add((int(lead) + i) % r.n)
		}
	}
	for _, t := range r.targets {
		r.seen[t] = false
	}
	return r.targets
}

func (r *SubmitRouter) add(replica int) {
	if !r.seen[replica] {
		r.seen[replica] = true
		r.targets = append(r.targets, replica)
	}
}
