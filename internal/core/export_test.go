package core

// TableCap exposes the number of transaction slots the replica's resolver
// ever allocated to the external test package.
func (r *Replica) TableCap() int { return r.resolver.Cap() }
