package partition

import (
	"encoding/binary"

	"repro/internal/types"
)

// Slot is a replica-private handle for one interned transaction: a small
// dense index into the Table's records and the per-transaction arrays its
// owner keeps beside them. It is valid until the table frees it and must
// never be stored in a message or a types.Transaction — the simulator
// shares those by pointer across replicas.
type Slot uint32

// recChunk sizes the record store's chunks, which never move: growth copies
// nothing and record pointers stay valid.
const recChunk = 512

// Table interns transactions to slots. A transaction stamped with a run
// index (types.Transaction.Idx) is identified by it and never hashed; any
// other by its ID, found through the ID's leading eight bytes and compared
// in full on a hit, so two transactions sharing a prefix stay two. Lookup
// is one linear probe of an open-addressed index. A record lives while its
// owner pins it or a bucket holds state for it; freed slots are recycled.
type Table struct {
	index []entry // power-of-two open addressing, linear probing
	shift uint    // 32 - log2(len(index))
	recs  [][]rec
	next  Slot // slots ever allocated
	free  []Slot
	live  int
}

// entry is one index cell: the transaction's 32-bit hash (its home cell is
// the top bits) and slot+1, so the zero value means empty.
type entry struct {
	hash uint32
	ref  uint32
}

// member is one bucket's state for one transaction; clock and position
// are kept modulo 2^32 (ages and queue lengths stay far below that).
type member struct {
	firstSeen uint32 // bucket clock at first arrival (flag seen)
	pos       uint32 // queue position (flag queued)
	bucket    uint16
	flags     uint8 // 0 = unused
}

const (
	queued    uint8 = 1 << iota // in the bucket's queue
	confirmed                   // delivered; re-submissions are refused until GC
	seen                        // firstSeen is set
	listed                      // on the bucket's GC list
)

// rec is one interned transaction: its ID (for a stamped transaction, the
// run index in the first eight bytes of an otherwise zero ID) and its
// bucket memberships, the first inline — a payment sits in one bucket.
type rec struct {
	id     types.TxID
	m0     member
	pinned bool
	more   []member
}

func newTable() *Table {
	return &Table{index: make([]entry, 1024), shift: 32 - 10}
}

// Live returns the number of interned transactions.
func (t *Table) Live() int { return t.live }

// Cap returns the number of slots ever allocated: every Slot is below it.
func (t *Table) Cap() int { return int(t.next) }

func (t *Table) rec(s Slot) *rec { return &t.recs[s/recChunk][s%recChunk] }

func hash(id *types.TxID) uint32 {
	return uint32(binary.BigEndian.Uint64(id[:8]) * 0x9E3779B97F4A7C15 >> 32)
}

// Intern returns tx's slot, allocating one on first sight.
func (t *Table) Intern(tx *types.Transaction) Slot {
	var id types.TxID
	if tx.Idx != 0 {
		binary.BigEndian.PutUint64(id[:8], tx.Idx)
	} else {
		id = tx.ID()
	}
	return t.intern(id)
}

// intern is Intern for a record ID.
func (t *Table) intern(id types.TxID) Slot {
	h, mask := hash(&id), len(t.index)-1
	i := int(h >> t.shift)
	for ; t.index[i].ref != 0; i = (i + 1) & mask {
		if e := t.index[i]; e.hash == h && t.rec(Slot(e.ref-1)).id == id {
			return Slot(e.ref - 1)
		}
	}
	var s Slot
	if n := len(t.free); n > 0 {
		s, t.free = t.free[n-1], t.free[:n-1]
	} else {
		s = t.next
		t.next++
		if int(s) == len(t.recs)*recChunk {
			t.recs = append(t.recs, make([]rec, recChunk))
		}
	}
	t.rec(s).id = id
	t.index[i] = entry{hash: h, ref: uint32(s) + 1}
	t.live++
	if 2*t.live > len(t.index) {
		old := t.index
		t.index, t.shift = make([]entry, 2*len(old)), t.shift-1
		for _, e := range old {
			if e.ref != 0 {
				j := int(e.hash >> t.shift)
				for t.index[j].ref != 0 {
					j = (j + 1) & (len(t.index) - 1)
				}
				t.index[j] = e
			}
		}
	}
	return s
}

// Pin keeps s interned until Unpin, whatever the buckets hold for it.
func (t *Table) Pin(s Slot) { t.rec(s).pinned = true }

// Unpin drops the owner's hold; the slot is freed once no bucket holds
// state for it.
func (t *Table) Unpin(s Slot) {
	t.rec(s).pinned = false
	t.release(s)
}

// member returns bucket b's state for s, claiming an unused cell (flags 0,
// which the caller sets) when there is none.
func (t *Table) member(s Slot, b uint16) *member {
	r := t.rec(s)
	spare := (*member)(nil)
	if r.m0.flags == 0 {
		spare = &r.m0
	} else if r.m0.bucket == b {
		return &r.m0
	}
	for i := range r.more {
		if m := &r.more[i]; m.flags != 0 && m.bucket == b {
			return m
		} else if m.flags == 0 && spare == nil {
			spare = m
		}
	}
	if spare == nil {
		r.more = append(r.more, member{})
		spare = &r.more[len(r.more)-1]
	}
	*spare = member{bucket: b}
	return spare
}

// release frees s if it is unpinned and no bucket holds state for it: the
// index cell is removed by backward shift, so probes never meet tombstones.
func (t *Table) release(s Slot) {
	r := t.rec(s)
	if r.pinned || r.m0.flags != 0 {
		return
	}
	for i := range r.more {
		if r.more[i].flags != 0 {
			return
		}
	}
	mask := len(t.index) - 1
	i := int(hash(&r.id) >> t.shift)
	for t.index[i].ref != uint32(s)+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.index[j].ref != 0; j = (j + 1) & mask {
		if (j-int(t.index[j].hash>>t.shift))&mask >= (j-i)&mask {
			t.index[i], i = t.index[j], j
		}
	}
	t.index[i] = entry{}
	*r = rec{more: r.more[:0]}
	t.free = append(t.free, s)
	t.live--
}
