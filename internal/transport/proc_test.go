package transport

import (
	"sync"
	"testing"
	"time"

	"repro/internal/pbft"
	"repro/internal/types"
	"repro/internal/wire"
)

// collector records deliveries on a node's event loop.
type collector struct {
	mu   sync.Mutex
	msgs []inMsg
}

func (c *collector) handle(from int, msg any) {
	c.mu.Lock()
	c.msgs = append(c.msgs, inMsg{from: from, msg: msg})
	c.mu.Unlock()
}

func (c *collector) snapshot() []inMsg {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]inMsg(nil), c.msgs...)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestProcDelivery pins the transport contract: messages arrive at another
// replica's registered handler as decoded copies (never the sender's
// pointer), in per-sender order, and Broadcast self-delivers.
func TestProcDelivery(t *testing.T) {
	p := NewProc(3)
	cols := make([]*collector, 3)
	for i := range cols {
		cols[i] = &collector{}
		p.Register(i, cols[i].handle)
	}
	p.Start(time.Now())
	defer p.Stop()

	sent := &pbft.Prepare{Instance: 1, View: 2, Seq: 3, Digest: types.BlockID{9}, Replica: 0}
	p.Send(0, 1, sent)
	p.Send(0, 1, &pbft.Commit{Instance: 1, Seq: 3, Replica: 0})
	p.Broadcast(2, &pbft.Prepare{Instance: 0, Seq: 1, Replica: 2})

	waitFor(t, func() bool { return len(cols[1].snapshot()) == 3 })
	waitFor(t, func() bool { return len(cols[2].snapshot()) == 1 })

	got := cols[1].snapshot()
	first, ok := got[0].msg.(*pbft.Prepare)
	if !ok || got[0].from != 0 {
		t.Fatalf("delivery 0 = %T from %d, want *pbft.Prepare from 0", got[0].msg, got[0].from)
	}
	if first == sent {
		t.Fatal("receiver got the sender's pointer, not a decoded copy")
	}
	if *first != *sent {
		t.Fatalf("decoded copy differs: %+v != %+v", first, sent)
	}
	if _, ok := got[1].msg.(*pbft.Commit); !ok {
		t.Fatalf("per-sender order violated: second delivery is %T", got[1].msg)
	}
	// Broadcast reached all three nodes, including the sender.
	waitFor(t, func() bool { return len(cols[0].snapshot()) == 1 })
}

// TestProcCountersUseEncodedSizes pins the counting contract: Messages and
// Bytes reflect actual wire encodings, not a modeled size.
func TestProcCountersUseEncodedSizes(t *testing.T) {
	p := NewProc(2)
	for i := 0; i < 2; i++ {
		p.Register(i, func(int, any) {})
	}
	p.Start(time.Now())
	defer p.Stop()

	msg := &pbft.Prepare{Instance: 1, View: 0, Seq: 2, Replica: 0}
	enc, err := wire.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	p.Send(0, 1, msg)
	p.Broadcast(0, msg) // 2 more deliveries of the same encoding
	if got, want := p.Messages(), uint64(3); got != want {
		t.Fatalf("Messages = %d, want %d", got, want)
	}
	if got, want := p.Bytes(), uint64(3*len(enc)); got != want {
		t.Fatalf("Bytes = %d, want %d (3 deliveries x %d encoded bytes)", got, want, len(enc))
	}
}

// TestNodeTimers pins the node's types.Clock: timers fire on the loop
// goroutine no earlier than their wall-clock deadline and observe that
// deadline as Now(); equal deadlines fire in schedule order; a timer armed
// from a timer callback for an already-due deadline fires in the same loop
// pass (before the pass's inbox dispatch); Now() is read once per pass, not
// per call; and nothing fires after Stop.
func TestNodeTimers(t *testing.T) {
	const due = types.Time(10 * time.Millisecond)
	n := NewNode()
	// order, firedWall and late are loop-goroutine state, read after Stop.
	var order []string
	note := func(a, _ any) { order = append(order, a.(string)) }
	var start time.Time
	var firedWall time.Duration
	late := false
	dispatched := make(chan struct{})
	n.setHandler(func(_ int, msg any) {
		before := n.Now()
		time.Sleep(2 * time.Millisecond)
		if n.Now() != before {
			note("Now() moved within one loop pass", nil)
		}
		if before < due {
			note("Now() behind a fired deadline", nil)
		}
		note(msg, nil)
		close(dispatched)
	})
	n.CallAt(due, note, "first", nil)
	n.CallAt(due, func(_, _ any) {
		firedWall = time.Since(start)
		if n.Now() != due {
			note("Now() != deadline inside a timer", nil)
		}
		note("second", nil)
		n.enqueue(0, "message")
		n.CallAt(due-1, note, "nested", nil) // already due: clamped to now
	}, nil, nil)
	n.CallAt(due, note, "third", nil)
	n.CallAt(10*due, func(_, _ any) { late = true }, nil, nil) // Stop lands well before
	if n.Now() != 0 {
		t.Fatalf("Now() = %v before Start, want 0", n.Now())
	}
	start = time.Now()
	n.Start(start)
	select {
	case <-dispatched:
	case <-time.After(5 * time.Second):
		n.Stop()
		t.Fatalf("self-enqueued message never dispatched; fired so far: %v", order)
	}
	n.Stop()
	time.Sleep(time.Until(start.Add(time.Duration(11 * due))))
	if firedWall < time.Duration(due) {
		t.Fatalf("timer fired after %s wall time, before its %s deadline", firedWall, due)
	}
	want := []string{"first", "second", "third", "nested", "message"}
	if len(order) != len(want) {
		t.Fatalf("firing order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("firing order %v, want %v", order, want)
		}
	}
	if late {
		t.Fatal("a timer fired after Stop")
	}
	if got := n.TimersFired(); got != 4 {
		t.Fatalf("TimersFired = %d, want 4", got)
	}
}
