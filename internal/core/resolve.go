package core

import (
	"encoding/binary"
	"slices"
	"sync/atomic"

	"repro/internal/ledger"
	"repro/internal/partition"
	"repro/internal/types"
)

// Resolver resolves transactions against one ledger.Directory: once per
// transaction content, whatever number of replicas it serves. A resolution
// — the content ID, each op's ledger handle, the route and each payer op's
// bucket — is a pure function of the content, the directory's handles and
// the replicas' M and mode, so replicas that share the directory share it.
// The simulator gives one resolver to every replica of a run; a real
// replica owns a private one (Config.Resolver nil).
//
// Each resolution sits at a dense index, the slot by which every replica
// on the resolver addresses its own state for the transaction (its
// partition.Table record and its tracker). Dedup is by content ID
// (Sec. III-B) in the resolver's one content index; a transaction also
// carries a types.Memo naming its resolution, which the leader's struct
// copies and the simulator's shared pointers take to every replica, so a
// replica that meets the transaction again hashes nothing. A resolution
// lives while some replica's table holds its slot, and is recycled at the
// checkpoint GC that releases the last.
//
// A Resolver is not safe for concurrent use: the replicas sharing one run
// on one goroutine.
type Resolver struct {
	owner uint64 // names the resolver in memos; unique in the process
	dir   *ledger.Directory
	m     int
	split bool
	// bucket memoizes each account's partition.Assign (-1: not yet hashed),
	// by handle.
	bucket []int32

	chunks [][]resolution
	next   partition.Slot // slots ever allocated
	free   []partition.Slot
	// index is the content index: open addressing with linear probing over
	// a power-of-two table; a cell holds an ID's 32-bit hash (its home cell
	// is the top bits) and slot+1, so the zero cell is empty. A hit is
	// compared in full, so two IDs sharing a prefix stay two.
	index []cell
	shift uint // 32 - log2(len(index))
	live  int
}

// cell is one content-index cell.
type cell struct {
	hash uint32
	ref  uint32
}

// resolution is what the resolver derived from one transaction's content.
// It is immutable once resolved, but for the count of replica tables
// holding its slot.
type resolution struct {
	// The route (every payer's bucket for a splitting mode, the first
	// otherwise; a payer-less transaction's is its client's), each op's
	// handle and each op's leg — the instance whose escrow phase runs it if
	// it is a payer op, -1 otherwise: n route entries in route and the rest
	// in hs and legs, unless any outgrows its array, when all live in wide.
	n     int32
	route [4]int32
	hs    [4]ledger.Handle
	legs  [4]int32
	wide  *wideResolution

	id  types.TxID
	gen uint32 // incarnation of the slot; a memo of another is stale
	// refs counts the replica tables holding the slot.
	refs int32
}

// wideResolution holds a route, or op handles and legs, longer than the
// inline arrays.
type wideResolution struct {
	route   []int32
	handles []ledger.Handle
	legs    []int32
}

// resChunk sizes the resolution store's chunks, which never move.
const resChunk = 512

// resolvers numbers the process's resolvers, for Resolver.owner.
var resolvers atomic.Uint64

// NewResolver creates a resolver, over a directory of its own, for
// replicas configured as cfg: its M (cfg.N when unset) and whether its
// mode splits multi-payer transactions.
func NewResolver(cfg Config) *Resolver {
	m := cfg.M
	if m <= 0 {
		m = cfg.N
	}
	return &Resolver{
		owner: resolvers.Add(1),
		dir:   ledger.NewDirectory(),
		m:     m, split: cfg.Mode.SplitMultiPayer,
		index: make([]cell, 1024), shift: 32 - 10,
	}
}

// fits reports whether a replica configured as cfg may use r.
func (r *Resolver) fits(cfg Config) bool {
	return r.m == cfg.M && r.split == cfg.Mode.SplitMultiPayer
}

// Cap returns the number of slots ever allocated: every slot is below it.
func (r *Resolver) Cap() int { return int(r.next) }

func (r *Resolver) at(s partition.Slot) *resolution {
	return &r.chunks[s/resChunk][s%resChunk]
}

// resolve returns the slot of tx's resolution: the one tx's memo names if
// it is this resolver's and current, else the content index's, else a new
// one. It leaves the memo naming the result.
func (r *Resolver) resolve(tx *types.Transaction) partition.Slot {
	if m := tx.Memo(); m.Owner == r.owner && m.Index < uint32(r.next) {
		if s := partition.Slot(m.Index); r.at(s).gen == m.Gen {
			return s
		}
	}
	id := tx.ID()
	s, fresh := r.intern(&id)
	if fresh {
		r.fill(r.at(s), tx)
	}
	tx.SetMemo(types.Memo{Owner: r.owner, Index: uint32(s), Gen: r.at(s).gen})
	return s
}

// fill resolves tx's handles, route and legs into res. The route is tx's
// partition.Route, cut to its head unless the mode splits multi-payer
// transactions; a route of one entry runs every payer leg, a longer one
// runs each on its payer's bucket.
func (r *Resolver) fill(res *resolution, tx *types.Transaction) {
	hs := res.hs[:0]
	for _, op := range tx.Ops {
		if op.Type == types.Shared {
			hs = append(hs, r.dir.Record(op.Key))
		} else {
			hs = append(hs, r.dir.Account(op.Key))
		}
	}
	route := partition.Route(res.route[:0], tx, func(i int) int32 {
		if i < 0 {
			return r.bucketOf(r.dir.Account(tx.Client), tx.Client)
		}
		return r.bucketOf(hs[i], tx.Ops[i].Key)
	})
	if !r.split {
		route = route[:1]
	}
	legs := res.legs[:0]
	for i, op := range tx.Ops {
		switch {
		case !op.IsPayerOp():
			legs = append(legs, -1)
		case len(route) == 1:
			legs = append(legs, route[0])
		default:
			legs = append(legs, r.bucket[hs[i]])
		}
	}
	res.n = int32(len(route))
	if len(route) <= len(res.route) && len(hs) <= len(res.hs) {
		copy(res.route[:], route) // a route cut back to its head may have spilled
		return
	}
	res.wide = &wideResolution{route: slices.Clone(route), handles: slices.Clone(hs), legs: slices.Clone(legs)}
}

// bucketOf returns account a's bucket: k's partition.Assign, hashed once
// per account.
func (r *Resolver) bucketOf(a ledger.Handle, k types.Key) int32 {
	for int(a) >= len(r.bucket) {
		r.bucket = append(r.bucket, -1)
	}
	if r.bucket[a] < 0 {
		r.bucket[a] = int32(partition.Assign(k, r.m))
	}
	return r.bucket[a]
}

func hash(id *types.TxID) uint32 {
	return uint32(binary.BigEndian.Uint64(id[:8]) * 0x9E3779B97F4A7C15 >> 32)
}

// intern returns id's slot, allocating one on first sight (fresh: the
// caller fills its resolution).
func (r *Resolver) intern(id *types.TxID) (s partition.Slot, fresh bool) {
	h, mask := hash(id), len(r.index)-1
	i := int(h >> r.shift)
	for ; r.index[i].ref != 0; i = (i + 1) & mask {
		if c := r.index[i]; c.hash == h {
			if s := partition.Slot(c.ref - 1); r.at(s).id == *id {
				return s, false
			}
		}
	}
	if n := len(r.free); n > 0 {
		s, r.free = r.free[n-1], r.free[:n-1]
	} else {
		s = r.next
		r.next++
		if int(s) == len(r.chunks)*resChunk {
			r.chunks = append(r.chunks, make([]resolution, resChunk))
		}
	}
	r.at(s).id = *id
	r.index[i] = cell{hash: h, ref: uint32(s) + 1}
	r.live++
	if 2*r.live > len(r.index) {
		old := r.index
		r.index, r.shift = make([]cell, 2*len(old)), r.shift-1
		for _, c := range old {
			if c.ref != 0 {
				j := int(c.hash >> r.shift)
				for r.index[j].ref != 0 {
					j = (j + 1) & (len(r.index) - 1)
				}
				r.index[j] = c
			}
		}
	}
	return s, true
}

// hold counts one more replica table holding s.
func (r *Resolver) hold(s partition.Slot) { r.at(s).refs++ }

// drop counts one replica table fewer holding s; at none the resolution
// leaves the content index (by backward shift, so probes never meet
// tombstones), its incarnation ends and the slot is free.
func (r *Resolver) drop(s partition.Slot) {
	res := r.at(s)
	if res.refs--; res.refs > 0 {
		return
	}
	mask := len(r.index) - 1
	i := int(hash(&res.id) >> r.shift)
	for r.index[i].ref != uint32(s)+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; r.index[j].ref != 0; j = (j + 1) & mask {
		if (j-int(r.index[j].hash>>r.shift))&mask >= (j-i)&mask {
			r.index[i], i = r.index[j], j
		}
	}
	r.index[i] = cell{}
	*res = resolution{gen: res.gen + 1}
	r.free = append(r.free, s)
	r.live--
}

// routeOf returns res's route.
func (res *resolution) routeOf() []int32 {
	if res.wide != nil {
		return res.wide.route
	}
	return res.route[:res.n]
}

// handle returns the ledger handle of the transaction's op i.
func (res *resolution) handle(i int) ledger.Handle {
	if res.wide != nil {
		return res.wide.handles[i]
	}
	return res.hs[i]
}

// leg returns the instance whose escrow phase runs payer op i.
func (res *resolution) leg(i int) int {
	if res.wide != nil {
		return int(res.wide.legs[i])
	}
	return int(res.legs[i])
}
