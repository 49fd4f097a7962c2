package partition

import "repro/internal/types"

// A replica chooses its slots and addresses buckets by them; these are the
// by-transaction entry points of a stand-alone bucket the tests and the
// oracle comparison drive, on the slots of the Set its table belongs to.

// setOf finds the Set of a table newSet built.
var setOf = map[*Table]*Set{}

// newSet is NewSet, registered for the helpers below.
func newSet(m int) *Set {
	s := NewSet(m)
	setOf[s.table] = s
	return s
}

// NewBucket creates an empty bucket over a table of its own.
func NewBucket() *Bucket { return newSet(1).Bucket(0) }

// Push is PushSlot on the transaction's slot in the bucket's set.
func (b *Bucket) Push(tx *types.Transaction) bool { return b.PushSlot(tx, setOf[b.t].slot(tx)) }

// MarkConfirmed is MarkConfirmedSlot on the transaction's slot in the
// bucket's set.
func (b *Bucket) MarkConfirmed(tx *types.Transaction) { b.MarkConfirmedSlot(setOf[b.t].slot(tx)) }
