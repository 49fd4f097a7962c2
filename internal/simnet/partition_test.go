package simnet

import "testing"

// collect registers counting handlers on every node and returns the
// per-node delivery counts.
func collect(nw *Network) []int {
	got := make([]int, len(nw.handlers))
	for i := range got {
		i := i
		nw.Register(i, func(from int, msg any) { got[i]++ })
	}
	return got
}

func TestPartitionCutsAcrossGroups(t *testing.T) {
	sim := New(1)
	nw := NewNetwork(sim, 4, NewLAN(), nil)
	got := collect(nw)

	nw.Partition([]int{0, 1}, []int{2, 3})
	for from := 0; from < 4; from++ {
		nw.Broadcast(from, "m")
	}
	sim.RunAll(0)

	// Each node hears from its own side only: itself and its partner.
	for i, n := range got {
		if n != 2 {
			t.Fatalf("node %d got %d deliveries during cut, want 2", i, n)
		}
	}

	nw.Heal()
	for from := 0; from < 4; from++ {
		nw.Broadcast(from, "m")
	}
	sim.RunAll(0)
	for i, n := range got {
		if n != 2+4 {
			t.Fatalf("node %d got %d total deliveries after heal, want 6", i, n)
		}
	}
}

func TestPartitionImplicitGroup(t *testing.T) {
	sim := New(1)
	nw := NewNetwork(sim, 4, NewLAN(), nil)
	// Isolate node 3; nodes 0-2 are unlisted and form the implicit group.
	nw.Partition([]int{3})
	if !nw.LinkBlocked(0, 3) || !nw.LinkBlocked(3, 0) {
		t.Fatal("link 0<->3 should be cut")
	}
	if nw.LinkBlocked(0, 1) || nw.LinkBlocked(2, 0) {
		t.Fatal("links inside the implicit group should be open")
	}
}

// TestPartitionDropsInFlight pins the cut semantics: a message already in
// flight when the partition happens is lost, like packets on a failed path.
func TestPartitionDropsInFlight(t *testing.T) {
	sim := New(1)
	nw := NewNetwork(sim, 2, NewWAN(), nil)
	got := collect(nw)

	nw.Send(0, 1, "in-flight")
	sim.At(1, func() { nw.Partition([]int{0}, []int{1}) }) // cut before delivery
	sim.RunAll(0)
	if got[1] != 0 {
		t.Fatalf("in-flight message survived the cut: %d deliveries", got[1])
	}
}

func TestSetLinkBlockedIsUnidirectional(t *testing.T) {
	sim := New(1)
	nw := NewNetwork(sim, 2, NewLAN(), nil)
	got := collect(nw)

	nw.SetLinkBlocked(0, 1, true)
	nw.Send(0, 1, "dropped")
	nw.Send(1, 0, "delivered")
	sim.RunAll(0)
	if got[1] != 0 || got[0] != 1 {
		t.Fatalf("asymmetric cut violated: got %v, want [1 0]", got)
	}
	// Self-links can never be cut.
	nw.SetLinkBlocked(0, 0, true)
	if nw.LinkBlocked(0, 0) {
		t.Fatal("self-link reported blocked")
	}
}
