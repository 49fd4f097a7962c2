// Package faultnet injects endpoint and link faults into any
// types.Network: a message is dropped at send when its sender or receiver
// is down or their link is cut, and again at delivery (the handler given to
// Register is wrapped) when its receiver is down or the link is cut by
// then. Self-links are never cut, nor is a sender outside [0, n), the
// harness client. While no fault is active every call passes through
// untouched; while one is, Broadcast becomes one Send per destination not
// cut off, in destination order. Each verb publishes a fresh immutable
// fault state with one compare-and-swap, retried if another verb
// published first, so sends, deliveries and the verbs themselves may all
// run on many goroutines.
package faultnet

import (
	"slices"
	"sync/atomic"

	"repro/internal/types"
)

// Network wraps a types.Network of n nodes with the fault verbs SetDown,
// Partition and Heal.
type Network struct {
	inner types.Network
	n     int
	state atomic.Pointer[faults] // nil while no fault is active
}

// faults is one fault state, never mutated once published.
type faults struct {
	down  []bool // per node
	group []int  // per node, its side of the partition; nil without one
}

// Wrap decorates inner, a network of n nodes, with no fault active.
func Wrap(inner types.Network, n int) *Network { return &Network{inner: inner, n: n} }

var _ types.Network = (*Network)(nil)

// drops reports whether a message from -> to is dropped: its receiver is
// down or the link cut, or — at send — its sender is down.
func (s *faults) drops(from, to int, send bool) bool {
	node := func(i int) bool { return uint(i) < uint(len(s.down)) }
	return node(to) && (s.down[to] || s.group != nil && node(from) && s.group[from] != s.group[to]) ||
		send && node(from) && s.down[from]
}

// Register installs h for node id, behind the delivery-time check.
func (f *Network) Register(id int, h types.Handler) {
	f.inner.Register(id, func(from int, msg any) {
		if s := f.state.Load(); s == nil || !s.drops(from, id, false) {
			h(from, msg)
		}
	})
}

// Send passes msg on unless a fault blocks it.
func (f *Network) Send(from, to int, msg any) {
	if s := f.state.Load(); s == nil || !s.drops(from, to, true) {
		f.inner.Send(from, to, msg)
	}
}

// Broadcast passes msg on whole while no fault is active, else Sends it
// to each destination.
func (f *Network) Broadcast(from int, msg any) {
	if f.state.Load() == nil {
		f.inner.Broadcast(from, msg)
		return
	}
	for to := 0; to < f.n; to++ {
		f.Send(from, to, msg)
	}
}

// SetDown marks node id crashed (true) or recovered (false).
func (f *Network) SetDown(id int, down bool) { f.update(func(s *faults) { s.down[id] = down }) }

// Down reports whether node id is marked crashed. Safe from any goroutine.
func (f *Network) Down(id int) bool {
	s := f.state.Load()
	return s != nil && s.down[id]
}

// Partition cuts every link between nodes of different groups; nodes listed
// in no group form one more group. It replaces any previous cut.
func (f *Network) Partition(groups ...[]int) {
	f.update(func(s *faults) {
		s.group = make([]int, f.n)
		for i := range s.group {
			s.group[i] = len(groups)
		}
		for g, nodes := range groups {
			for _, id := range nodes {
				s.group[id] = g
			}
		}
	})
}

// Heal restores every cut link.
func (f *Network) Heal() { f.update(func(s *faults) { s.group = nil }) }

// update publishes a copy of the fault state with edit applied, or nil if
// the copy holds no fault. It retries against a state another verb
// published meanwhile, so concurrent verbs all take effect.
func (f *Network) update(edit func(*faults)) {
	for {
		cur := f.state.Load()
		next := &faults{down: make([]bool, f.n)}
		if cur != nil {
			copy(next.down, cur.down)
			next.group = cur.group
		}
		edit(next)
		if next.group == nil && !slices.Contains(next.down, true) {
			next = nil
		}
		if f.state.CompareAndSwap(cur, next) {
			return
		}
	}
}
