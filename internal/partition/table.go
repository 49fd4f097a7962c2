package partition

// Slot is the handle of one transaction in a Table: a small dense index
// into the table's records and the per-transaction arrays its owner keeps
// beside them. The owner chooses it — a replica uses the slot of the
// transaction's resolution (core.Resolver), the same for every replica
// sharing that resolver — and may reuse it once the table has released it
// (Reap). A Slot never enters a message or a digest; a transaction
// carries its resolution's slot only inside its types.Memo, which no
// resolver but the issuing one reads.
type Slot uint32

// recChunk sizes the record store's chunks, which never move: growth copies
// nothing and record pointers stay valid.
const recChunk = 512

// Table holds one replica's bucket records, addressed by slot. A record
// lives while its owner pins it or a bucket holds state for it; then the
// table releases it and lists its slot for Reap.
type Table struct {
	recs  [][]rec
	live  int
	freed []Slot // released since the last Reap
	// more holds the memberships past a record's first, of a transaction
	// in several buckets (a split multi-payer one); spare pools their
	// slices for reuse. Records stay pointer-free, so the collector never
	// scans them.
	more  map[Slot][]member
	spare [][]member
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

// rec is one transaction's bucket memberships, the first inline — a
// payment sits in one bucket — and any others in Table.more (spill). held
// marks a record counted live.
type rec struct {
	m0     member
	pinned bool
	held   bool
	spill  bool
}

func newTable() *Table { return &Table{more: make(map[Slot][]member)} }

// Live returns the number of live records.
func (t *Table) Live() int { return t.live }

// Cap returns the number of record cells allocated: every slot the table
// has held a record for is below it.
func (t *Table) Cap() int { return len(t.recs) * recChunk }

// cell returns s's record cell, growing the store to cover s.
func (t *Table) cell(s Slot) *rec {
	for int(s) >= len(t.recs)*recChunk {
		t.recs = append(t.recs, make([]rec, recChunk))
	}
	return &t.recs[s/recChunk][s%recChunk]
}

// rec returns s's record, holding it live.
func (t *Table) rec(s Slot) *rec {
	r := t.cell(s)
	if !r.held {
		r.held = true
		t.live++
	}
	return r
}

// Pin keeps s's record live until Unpin, whatever the buckets hold for
// it. It reports whether the record was not live before.
func (t *Table) Pin(s Slot) (fresh bool) {
	fresh = !t.cell(s).held
	t.rec(s).pinned = true
	return fresh
}

// Unpin drops the owner's hold; the record is released once no bucket
// holds state for it.
func (t *Table) Unpin(s Slot) {
	t.cell(s).pinned = false
	t.release(s)
}

// Reap returns the slots released since the last call; the slice is
// reused by the next release.
func (t *Table) Reap() []Slot {
	out := t.freed
	t.freed = t.freed[:0]
	return out
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
	var more []member
	if r.spill {
		more = t.more[s]
	}
	for i := range more {
		if m := &more[i]; m.flags != 0 && m.bucket == b {
			return m
		} else if m.flags == 0 && spare == nil {
			spare = m
		}
	}
	if spare == nil {
		if more == nil && len(t.spare) > 0 {
			more, t.spare = t.spare[len(t.spare)-1], t.spare[:len(t.spare)-1]
		}
		more = append(more, member{})
		t.more[s], r.spill = more, true
		spare = &more[len(more)-1]
	}
	*spare = member{bucket: b}
	return spare
}

// release frees s if it is unpinned and no bucket holds state for it, and
// lists it for Reap.
func (t *Table) release(s Slot) {
	r := t.cell(s)
	if !r.held || r.pinned || r.m0.flags != 0 {
		return
	}
	if r.spill {
		more := t.more[s]
		for i := range more {
			if more[i].flags != 0 {
				return
			}
		}
		delete(t.more, s)
		t.spare = append(t.spare, more[:0])
	}
	*r = rec{}
	t.freed = append(t.freed, s)
	t.live--
}
