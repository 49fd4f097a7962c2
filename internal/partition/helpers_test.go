package partition

import "repro/internal/types"

// The replica interns a transaction once and addresses buckets by slot;
// these are the by-transaction entry points of a stand-alone bucket the
// tests and the oracle comparison drive.

// NewBucket creates an empty bucket over a table of its own.
func NewBucket() *Bucket { return &Bucket{t: newTable()} }

// Push is PushSlot for a transaction interned on the spot.
func (b *Bucket) Push(tx *types.Transaction) bool { return b.PushSlot(tx, b.t.Intern(tx)) }

// MarkConfirmed is MarkConfirmedSlot for a transaction interned on the spot.
func (b *Bucket) MarkConfirmed(tx *types.Transaction) { b.MarkConfirmedSlot(b.t.Intern(tx)) }
