package simnet

import (
	"testing"
	"time"
)

// sized is a test message whose value is its size in bytes: the NIC tests
// build their networks with sizeOf as the size function.
type sized int

func sizeOf(msg any) int { return int(msg.(sized)) }

func TestNICSerializationDelay(t *testing.T) {
	s := New(1)
	nw := NewNetwork(s, 2, NewFixed(10*time.Millisecond), sizeOf)
	nw.SetNICBps(1e9) // 1 Gbps
	var at Time
	nw.Register(0, func(from int, msg any) {})
	nw.Register(1, func(from int, msg any) { at = s.Now() })
	// 1 MB message: 8 ms egress + 10 ms propagation = 18 ms.
	nw.Send(0, 1, sized(1_000_000))
	s.RunAll(0)
	want := Time(18 * time.Millisecond)
	if at < want-Time(time.Millisecond) || at > want+Time(time.Millisecond) {
		t.Fatalf("delivery at %v, want ~%v", at, want)
	}
}

func TestNICEgressQueueing(t *testing.T) {
	// Two large messages from one sender must serialize on its egress link:
	// the second starts transmitting only after the first finishes.
	s := New(1)
	nw := NewNetwork(s, 3, NewFixed(time.Millisecond), sizeOf)
	nw.SetNICBps(1e9)
	var times []Time
	for i := 0; i < 3; i++ {
		i := i
		nw.Register(i, func(from int, msg any) {
			if i != 0 {
				times = append(times, s.Now())
			}
		})
	}
	nw.Send(0, 1, sized(1_000_000)) // 8 ms egress
	nw.Send(0, 2, sized(1_000_000)) // waits for the first egress
	s.RunAll(0)
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	gap := times[1] - times[0]
	if gap < Time(7*time.Millisecond) {
		t.Fatalf("second message not serialized behind first: gap %v", gap)
	}
}

func TestNICReceiverKeepsArrivalOrder(t *testing.T) {
	// A message lands at its own arrival: one sent earlier by a slow
	// sender to the same node does not hold it back. There is no receive
	// queue to book the two in send order.
	s := New(1)
	nw := NewNetwork(s, 3, NewFixed(time.Millisecond), sizeOf)
	nw.SetNICBps(1e9)
	nw.SetOutScale(0, 100) // node 0's message propagates for 100 ms
	got := map[int]Time{}
	nw.Register(0, func(from int, msg any) {})
	nw.Register(1, func(from int, msg any) {})
	nw.Register(2, func(from int, msg any) { got[from] = s.Now() })
	nw.Send(0, 2, sized(1000))
	s.At(Time(time.Millisecond), func() { nw.Send(1, 2, sized(1000)) })
	s.RunAll(0)
	if len(got) != 2 {
		t.Fatalf("delivered %d, want 2", len(got))
	}
	// 1 ms send time + 8 us egress + 1 ms propagation.
	if want := Time(2*time.Millisecond + 8*time.Microsecond); got[1] != want {
		t.Fatalf("node 1's message landed at %v, want its own arrival %v (node 0's landed at %v)", got[1], want, got[0])
	}
}

func TestNICSelfSendBypassesQueues(t *testing.T) {
	s := New(1)
	nw := NewNetwork(s, 1, NewFixed(time.Millisecond), sizeOf)
	nw.SetNICBps(1e9)
	var at Time
	nw.Register(0, func(from int, msg any) { at = s.Now() })
	nw.Send(0, 0, sized(1_000_000))
	s.RunAll(0)
	if at != Time(time.Millisecond) {
		t.Fatalf("self-send delayed by NIC: %v", at)
	}
}

func TestNICSmallMessagesCheap(t *testing.T) {
	s := New(1)
	nw := NewNetwork(s, 2, NewFixed(10*time.Millisecond), sizeOf)
	nw.SetNICBps(1e9)
	var at Time
	nw.Register(0, func(from int, msg any) {})
	nw.Register(1, func(from int, msg any) { at = s.Now() })
	nw.Send(0, 1, sized(100)) // 0.8 us x2 — negligible
	s.RunAll(0)
	if at > Time(10*time.Millisecond+10*time.Microsecond) {
		t.Fatalf("small message overcharged: %v", at)
	}
}

func TestBaseDelayDeterministicAndScaled(t *testing.T) {
	s := New(1)
	wan := NewWAN()
	nw := NewNetwork(s, 8, wan, nil)
	d1 := nw.BaseDelay(0, 2)
	d2 := nw.BaseDelay(0, 2)
	if d1 != d2 {
		t.Fatal("BaseDelay nondeterministic")
	}
	nw.SetOutScale(0, 10)
	if nw.BaseDelay(0, 2) != 10*d1 {
		t.Fatal("BaseDelay ignores straggler scaling")
	}
}
