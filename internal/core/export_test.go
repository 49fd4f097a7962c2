package core

// TableCap exposes the transaction table's slot capacity to the external
// test package.
func (r *Replica) TableCap() int { return r.buckets.Table().Cap() }
