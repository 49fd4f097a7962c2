package simnet

import (
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.After(3*time.Millisecond, func() { got = append(got, 3) })
	s.After(1*time.Millisecond, func() { got = append(got, 1) })
	s.After(2*time.Millisecond, func() { got = append(got, 2) })
	s.RunAll(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if s.Now() != Time(3*time.Millisecond) {
		t.Fatalf("now = %v", s.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		s.After(time.Millisecond, func() { got = append(got, i) })
	}
	s.RunAll(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("ties not FIFO: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var fired []Time
	s.After(time.Millisecond, func() {
		fired = append(fired, s.Now())
		s.After(time.Millisecond, func() { fired = append(fired, s.Now()) })
	})
	s.RunAll(0)
	if len(fired) != 2 || fired[1] != Time(2*time.Millisecond) {
		t.Fatalf("fired = %v", fired)
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.After(time.Duration(i)*time.Second, func() { count++ })
	}
	s.Run(Time(5 * time.Second))
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if s.Pending() != 5 {
		t.Fatalf("pending = %d", s.Pending())
	}
}

func TestSchedulePastClamps(t *testing.T) {
	s := New(1)
	s.After(time.Second, func() {
		s.At(0, func() {}) // in the past; should clamp, not panic or loop
	})
	s.RunAll(0)
	if s.Now() != Time(time.Second) {
		t.Fatalf("now = %v", s.Now())
	}
}

func TestNetworkDelivery(t *testing.T) {
	s := New(1)
	nw := NewNetwork(s, 2, NewFixed(10*time.Millisecond), nil)
	var gotFrom int
	var gotMsg any
	var at Time
	nw.Register(1, func(from int, msg any) { gotFrom, gotMsg, at = from, msg, s.Now() })
	nw.Register(0, func(from int, msg any) {})
	nw.Send(0, 1, "hello")
	s.RunAll(0)
	if gotFrom != 0 || gotMsg != "hello" {
		t.Fatalf("got from=%d msg=%v", gotFrom, gotMsg)
	}
	if at != Time(10*time.Millisecond) {
		t.Fatalf("delivered at %v", at)
	}
	if nw.Messages() != 1 {
		t.Fatalf("stats msgs=%d", nw.Messages())
	}
}

func TestNetworkBroadcastIncludesSelf(t *testing.T) {
	s := New(1)
	nw := NewNetwork(s, 3, NewFixed(time.Millisecond), nil)
	got := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		nw.Register(i, func(from int, msg any) { got[i]++ })
	}
	nw.Broadcast(0, "x")
	s.RunAll(0)
	for i, c := range got {
		if c != 1 {
			t.Fatalf("node %d received %d messages", i, c)
		}
	}
}

func TestStragglerOutScale(t *testing.T) {
	s := New(1)
	nw := NewNetwork(s, 2, NewFixed(10*time.Millisecond), nil)
	var at Time
	nw.Register(0, func(from int, msg any) {})
	nw.Register(1, func(from int, msg any) { at = s.Now() })
	nw.SetOutScale(0, 10)
	nw.Send(0, 1, "x")
	s.RunAll(0)
	if at != Time(100*time.Millisecond) {
		t.Fatalf("straggler message arrived at %v, want 100ms", at)
	}
	if nw.OutScale(0) != 10 {
		t.Fatal("OutScale getter wrong")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := New(99)
		nw := NewNetwork(s, 4, NewWAN(), nil)
		var times []Time
		for i := 0; i < 4; i++ {
			i := i
			nw.Register(i, func(from int, msg any) { times = append(times, s.Now()) })
		}
		for i := 0; i < 4; i++ {
			nw.Broadcast(i, i)
		}
		s.RunAll(0)
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// The three latency tests below read delays the way a run does: through
// the matrix NewNetwork snapshots and the per-link jitter streams.

func TestWANRegionsAsymmetry(t *testing.T) {
	nw := NewNetwork(New(1), 5, NewWAN(), nil)
	// Nodes 0 and 4 share region 0 (France); node 2 is Australia.
	same := nw.BaseDelay(0, 4, 0)
	far := nw.BaseDelay(0, 2, 0)
	if same >= far {
		t.Fatalf("intra-region %v >= France-Australia %v", same, far)
	}
	if far != 140*time.Millisecond {
		t.Fatalf("France->Australia base = %v, want 140ms", far)
	}
	if back := nw.BaseDelay(2, 0, 0); back != far {
		t.Fatalf("Australia->France base = %v, want %v", back, far)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	nw := NewNetwork(New(1), 2, NewLAN(), nil)
	small := nw.BaseDelay(0, 1, 0)
	big := nw.BaseDelay(0, 1, 1e6) // 1 MB at 1 Gbps = 8 ms extra
	extra := big - small
	if extra < 7*time.Millisecond || extra > 9*time.Millisecond {
		t.Fatalf("serialization delay for 1MB = %v, want ~8ms", extra)
	}
	// A Send charges what the network's size function says the message
	// costs (equal seeds draw the same jitter on the link).
	arrival := func(msg sized) Time {
		s := New(1)
		nw := NewNetwork(s, 2, NewLAN(), sizeOf)
		var at Time
		nw.Register(1, func(int, any) { at = s.Now() })
		nw.Send(0, 1, msg)
		s.RunAll(0)
		return at
	}
	if extra := time.Duration(arrival(1e6) - arrival(0)); extra < 7*time.Millisecond || extra > 9*time.Millisecond {
		t.Fatalf("a sent 1MB message arrived %v after an empty one, want ~8ms", extra)
	}
}

func TestJitterBounded(t *testing.T) {
	nw := NewNetwork(New(5), 2, NewWAN(), nil)
	base := nw.BaseDelay(0, 1, 500)
	varied := false
	for i := 0; i < 100; i++ {
		d := nw.Delay(0, 1, 500)
		if d < base || float64(d) > float64(base)*1.051 {
			t.Fatalf("jittered delay %v outside [base, base*1.05] (base %v)", d, base)
		}
		varied = varied || d != base
	}
	if !varied {
		t.Fatal("100 draws from the link's jitter stream never moved the delay")
	}
}

// TestNewFixed pins the unit-test profile: every link, self-sends included,
// takes exactly d; the message size is ignored; and no jitter is drawn, so
// the link streams stay where NewNetwork seeded them.
func TestNewFixed(t *testing.T) {
	const d = 3 * time.Millisecond
	nw := NewNetwork(New(9), 3, NewFixed(d), nil)
	seeded := append([]uint64(nil), nw.jit...)
	for from := 0; from < 3; from++ {
		for to := 0; to < 3; to++ {
			for _, size := range []int{0, 1, 1 << 20} {
				if got := nw.Delay(from, to, size); got != d {
					t.Fatalf("Delay(%d,%d,%d) = %v, want %v", from, to, size, got, d)
				}
				if got := nw.BaseDelay(from, to, size); got != d {
					t.Fatalf("BaseDelay(%d,%d,%d) = %v, want %v", from, to, size, got, d)
				}
			}
		}
	}
	for l := range seeded {
		if nw.jit[l] != seeded[l] {
			t.Fatalf("link %d drew jitter under NewFixed", l)
		}
	}
}
