// Package partition implements the bucket mechanism of Sec. V-A: client
// transactions are mapped to buckets — one bucket per SB instance — based
// on the owned objects they decrement (payers). Transactions with several
// payers join several buckets; the escrow mechanism later keeps them atomic.
//
// Buckets are append-only for backups; the instance leader additionally
// pulls batches of the oldest transactions when assembling blocks.
//
// Buckets also age their contents in units of delivered blocks (Tick /
// Oldest), which drives the censorship detector of Sec. V-B: a leader
// that keeps delivering blocks while an old feasible transaction sits
// queued is suspected of censoring it and voted out. ARCHITECTURE.md
// places this package in the replica's data flow.
package partition

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/types"
)

// Assign maps an owned-object key to a bucket index in [0, m): the hash of
// the key modulo the number of instances (the paper's example assign).
func Assign(key types.Key, m int) int {
	h := sha256.Sum256([]byte(key))
	return int(binary.BigEndian.Uint64(h[:8]) % uint64(m))
}

// Route appends to dst the buckets tx joins and returns the extended
// slice: the distinct buckets of its payers (owned objects it decrements),
// ascending, or its client's bucket alone when it has no payer
// (Algorithm 1 lines 10-14). bucket(i) is the bucket of op i, bucket(-1)
// the client's; each caller keeps its own memo of Assign behind it. Route
// allocates nothing when dst has room. Deduplication is an insertion
// into the appended region: transactions have a handful of payers at most.
func Route(dst []int32, tx *types.Transaction, bucket func(op int) int32) []int32 {
	start := len(dst)
next:
	for i, op := range tx.Ops {
		if !op.IsPayerOp() {
			continue
		}
		b, j := bucket(i), len(dst)
		for ; j > start && dst[j-1] >= b; j-- {
			if dst[j-1] == b {
				continue next
			}
		}
		dst = append(dst, 0)
		copy(dst[j+1:], dst[j:])
		dst[j] = b
	}
	if len(dst) == start {
		dst = append(dst, bucket(-1))
	}
	return dst
}

// Entry is one queued transaction with its slot in the bucket's Table.
type Entry struct {
	Tx   *types.Transaction
	Slot Slot
}

// Bucket is a FIFO of pending transactions for one instance, deduplicated
// by transaction identity. Transactions leave the bucket when pulled by
// the leader or removed after confirmation elsewhere. What the bucket
// knows about a transaction (its member) lives in the Table record.
type Bucket struct {
	t  *Table
	id uint16
	// queue is the FIFO, base the absolute position of queue[0]. Confirming
	// mid-queue leaves a tombstone (Tx == nil) that Pull and Oldest skip.
	queue []Entry
	base  uint32
	n     int // queued transactions, tombstones excluded
	// clock counts the instance's block deliveries; against a member's
	// firstSeen it gives the age the censorship detector reads (Sec. V-B).
	clock uint32
	dirty []Slot // what GC must visit: confirmed, or pulled and not re-queued
}

// Tick advances the bucket's delivery clock (one per delivered block).
func (b *Bucket) Tick() { b.clock++ }

// Oldest returns the oldest queued transaction and its age in delivered
// blocks since it first arrived (surviving re-queues).
func (b *Bucket) Oldest() (e Entry, age uint64, ok bool) {
	for len(b.queue) > 0 && b.queue[0].Tx == nil {
		b.queue, b.base = b.queue[1:], b.base+1
	}
	if len(b.queue) == 0 {
		return Entry{}, 0, false
	}
	e = b.queue[0]
	return e, uint64(b.clock - b.t.member(e.Slot, b.id).firstSeen), true
}

// Len returns the number of queued transactions.
func (b *Bucket) Len() int { return b.n }

// PushSlot appends tx, interned in the bucket's table as s, unless it is
// already queued or was confirmed; it reports whether it was added.
func (b *Bucket) PushSlot(tx *types.Transaction, s Slot) bool {
	m := b.t.member(s, b.id)
	if m.flags&(queued|confirmed) != 0 {
		return false
	}
	if m.flags&seen == 0 {
		m.firstSeen = b.clock
	}
	m.flags |= queued | seen
	m.pos = b.base + uint32(len(b.queue))
	b.queue = append(b.queue, Entry{tx, s})
	b.n++
	return true
}

// list puts s on the GC list once.
func (b *Bucket) list(m *member, s Slot) {
	if m.flags&listed == 0 {
		m.flags |= listed
		b.dirty = append(b.dirty, s)
	}
}

// Pull removes and returns up to max of the oldest transactions, in
// arrival order. The leader calls it when assembling a block; pulled
// transactions that fail feasibility are pushed back and keep their
// original age (firstSeen survives re-queues).
func (b *Bucket) Pull(max int) []*types.Transaction {
	es := b.PullEntries(max)
	out := make([]*types.Transaction, len(es))
	for i, e := range es {
		out[i] = e.Tx
	}
	return out
}

// PullEntries is Pull with each transaction's slot.
func (b *Bucket) PullEntries(max int) []Entry {
	out := make([]Entry, 0, min(max, b.n))
	k := 0
	for ; k < len(b.queue) && len(out) < max; k++ {
		if e := b.queue[k]; e.Tx != nil {
			m := b.t.member(e.Slot, b.id)
			m.flags &^= queued
			b.list(m, e.Slot)
			out = append(out, e)
		}
	}
	b.queue, b.base, b.n = b.queue[k:], b.base+uint32(k), b.n-len(out)
	return out
}

// Peek returns up to max of the oldest queued transactions without
// removing them (diagnostics and tests; leaders use Pull).
func (b *Bucket) Peek(max int) []*types.Transaction {
	out := make([]*types.Transaction, 0, min(max, b.n))
	for k := 0; k < len(b.queue) && len(out) < max; k++ {
		if tx := b.queue[k].Tx; tx != nil {
			out = append(out, tx)
		}
	}
	return out
}

// MarkConfirmedSlot records that the transaction interned as s was
// confirmed (possibly via a block from another replica's leader) and drops
// it from the queue.
func (b *Bucket) MarkConfirmedSlot(s Slot) {
	m := b.t.member(s, b.id)
	if m.flags&queued != 0 {
		b.queue[m.pos-b.base].Tx = nil
		b.n--
	}
	m.flags = m.flags&listed | confirmed
	b.list(m, s)
}

// GC forgets confirmation records (run at stable checkpoints, Sec. V-D) and
// age marks of transactions no longer queued; one nothing holds is freed.
func (b *Bucket) GC() {
	for _, s := range b.dirty {
		m := b.t.member(s, b.id)
		m.flags &^= confirmed | listed
		if m.flags&queued == 0 {
			m.flags = 0
			b.t.release(s)
		}
	}
	b.dirty = b.dirty[:0]
}

// Set manages the m buckets of one replica: one bucket per SB instance
// over one shared Table, with transaction routing (Add) and cross-bucket
// bookkeeping.
type Set struct {
	buckets []*Bucket
	table   *Table
	// assign memoizes Assign per key for Add, which resolves the same few
	// thousand account keys over and over; nil until Add first runs.
	assign map[types.Key]int32
}

// NewSet creates m empty buckets.
func NewSet(m int) *Set {
	s := &Set{buckets: make([]*Bucket, m), table: newTable()}
	for i := range s.buckets {
		s.buckets[i] = &Bucket{t: s.table, id: uint16(i)}
	}
	return s
}

// Table returns the transaction table the set's buckets share.
func (s *Set) Table() *Table { return s.table }

// M returns the number of buckets (= SB instances).
func (s *Set) M() int { return len(s.buckets) }

// Bucket returns bucket i, the queue feeding SB instance i.
func (s *Set) Bucket(i int) *Bucket { return s.buckets[i] }

// Add validates tx and pushes it into every bucket of its Route. It
// returns the bucket indices used.
func (s *Set) Add(tx *types.Transaction) ([]int, error) {
	if err := tx.Validate(); err != nil {
		return nil, err
	}
	if s.assign == nil {
		s.assign = make(map[types.Key]int32, 1024)
	}
	var buf [4]int32
	route := Route(buf[:0], tx, func(i int) int32 {
		k := tx.Client
		if i >= 0 {
			k = tx.Ops[i].Key
		}
		b, ok := s.assign[k]
		if !ok {
			b = int32(Assign(k, len(s.buckets)))
			s.assign[k] = b
		}
		return b
	})
	slot := s.table.Intern(tx)
	idx := make([]int, len(route))
	for j, i := range route {
		idx[j] = int(i)
		s.buckets[i].PushSlot(tx, slot)
	}
	return idx, nil
}

// MarkConfirmed drops tx from all buckets.
func (s *Set) MarkConfirmed(tx *types.Transaction) {
	slot := s.table.Intern(tx)
	for _, b := range s.buckets {
		b.MarkConfirmedSlot(slot)
	}
}

// Pending returns the total queued transactions across buckets.
func (s *Set) Pending() int {
	n := 0
	for _, b := range s.buckets {
		n += b.Len()
	}
	return n
}

// GC runs checkpoint garbage collection on all buckets.
func (s *Set) GC() {
	for _, b := range s.buckets {
		b.GC()
	}
}
