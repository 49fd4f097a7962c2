package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pbft"
	"repro/internal/types"
	"repro/internal/wire"
)

// loopback starts an n-replica Loopback built with opts, each replica
// recording into a collector of its own.
func loopback(t *testing.T, n int, opts TCPOptions) (*Loopback, []*collector) {
	t.Helper()
	l, err := NewLoopback(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]*collector, n)
	for i := range cols {
		cols[i] = &collector{}
		l.Register(i, cols[i].handle)
	}
	l.Start(time.Now())
	t.Cleanup(l.Stop)
	return l, cols
}

// TestTCPDelivery pins framing end to end: sends and broadcasts cross real
// loopback sockets, arrive decoded with the sender's identity from the
// hello handshake, and the delivered-traffic counters reflect encoded
// frame payloads.
func TestTCPDelivery(t *testing.T) {
	l, cols := loopback(t, 3, TCPOptions{})

	msg := &pbft.Prepare{Instance: 1, View: 2, Seq: 3, Digest: types.BlockID{7}, Replica: 0}
	enc, err := wire.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	l.Send(0, 1, msg)
	l.Broadcast(2, &pbft.Commit{Instance: 0, Seq: 1, Replica: 2})

	waitFor(t, func() bool { return len(cols[1].snapshot()) == 2 })
	waitFor(t, func() bool { return len(cols[0].snapshot()) == 1 })
	waitFor(t, func() bool { return len(cols[2].snapshot()) == 1 })

	var prep *pbft.Prepare
	var prepFrom int
	for _, d := range cols[1].snapshot() {
		if p, ok := d.msg.(*pbft.Prepare); ok {
			prep, prepFrom = p, d.from
		}
	}
	if prep == nil || prepFrom != 0 {
		t.Fatalf("replica 1 did not receive the Prepare from 0: %+v", cols[1].snapshot())
	}
	if *prep != *msg {
		t.Fatalf("Prepare mangled in transit: %+v != %+v", prep, msg)
	}
	// Replica 1 delivered the Prepare (len(enc) bytes) and the Commit.
	cenc, err := wire.Encode(&pbft.Commit{Instance: 0, Seq: 1, Replica: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := l.eps[1].Bytes(), uint64(len(enc)+len(cenc)); got != want {
		t.Fatalf("replica 1 Bytes = %d, want %d (actual encoded sizes)", got, want)
	}
	if got := l.eps[1].Messages(); got != 2 {
		t.Fatalf("replica 1 Messages = %d, want 2", got)
	}
}

// TestTCPHelloRefusesImpersonation pins the two replica ids no inbound
// socket may claim — one outside the peer table, and the endpoint's own (a
// replica never dials itself, so that socket could only vote in its name):
// each such connection is closed before a frame is read and logged once,
// and the listener keeps serving the honest peer.
func TestTCPHelloRefusesImpersonation(t *testing.T) {
	var mu sync.Mutex
	refused := 0
	l, cols := loopback(t, 2, TCPOptions{Logf: func(format string, args ...any) {
		if strings.Contains(format, "hello claims") {
			mu.Lock()
			refused++
			mu.Unlock()
		}
	}})
	vote, err := wire.Encode(&pbft.Prepare{Instance: 0, Seq: 1, Replica: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, claimed := range []uint32{0, 2, 1 << 31} {
		conn, err := net.Dial("tcp", l.eps[0].Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		frames := binary.BigEndian.AppendUint32(nil, 4)
		frames = binary.BigEndian.AppendUint32(frames, claimed)
		frames = binary.BigEndian.AppendUint32(frames, uint32(len(vote)))
		if _, err := conn.Write(append(frames, vote...)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		// Closed with the vote unread: the read ends in EOF or a reset.
		if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("hello claiming replica %d: connection not closed by the endpoint (read: %v)", claimed, err)
		}
		conn.Close()
	}
	l.Send(1, 0, &pbft.Prepare{Instance: 0, Seq: 2, Replica: 1})
	waitFor(t, func() bool { return len(cols[0].snapshot()) == 1 })
	if got := cols[0].snapshot()[0]; got.from != 1 || l.eps[0].Messages() != 1 {
		t.Fatalf("endpoint 0 delivered %+v (%d messages), want only replica 1's vote", got, l.eps[0].Messages())
	}
	mu.Lock()
	defer mu.Unlock()
	if refused != 3 {
		t.Fatalf("%d refusals logged, want one per impersonating connection (3)", refused)
	}
}

// TestTCPReconnectBackoff pins the redial path: a send queued while the
// peer is not yet listening is retried with backoff and arrives once the
// peer comes up.
func TestTCPReconnectBackoff(t *testing.T) {
	lateLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lateAddr := lateLn.Addr().String()
	lateLn.Close() // free the port: peer 1 is "down" but its address is known

	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := []string{ln0.Addr().String(), lateAddr}
	node0 := NewNode()
	tr0, err := NewTCP(0, peers, node0, TCPOptions{Listener: ln0, DialBackoffMax: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	tr0.Register(0, (&collector{}).handle)
	node0.Start(time.Now())
	defer func() { tr0.Close(); node0.Stop() }()

	tr0.Send(0, 1, &pbft.Prepare{Instance: 0, Seq: 1, Replica: 0}) // peer down: queued, dial retries

	time.Sleep(150 * time.Millisecond) // let a few dial attempts fail
	var ln1 net.Listener
	for i := 0; i < 50; i++ { // the freed ephemeral port can be raced away
		ln1, err = net.Listen("tcp", lateAddr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Skipf("could not rebind %s: %v", lateAddr, err)
	}
	node1 := NewNode()
	tr1, err := NewTCP(1, peers, node1, TCPOptions{Listener: ln1})
	if err != nil {
		t.Fatal(err)
	}
	col1 := &collector{}
	tr1.Register(1, col1.handle)
	node1.Start(time.Now())
	defer func() { tr1.Close(); node1.Stop() }()

	waitFor(t, func() bool { return len(col1.snapshot()) == 1 })
}

// TestTCPCleanShutdown pins that Close returns with every goroutine
// reaped even with live inbound connections and a queued frame to an
// unreachable peer.
func TestTCPCleanShutdown(t *testing.T) {
	l, cols := loopback(t, 3, TCPOptions{})
	l.Send(1, 0, &pbft.Prepare{Instance: 0, Seq: 1, Replica: 1})
	waitFor(t, func() bool { return len(cols[0].snapshot()) == 1 })
	l.eps[2].Close() // a peer that will never accept again
	l.Send(0, 2, &pbft.Prepare{})

	doneCh := make(chan struct{})
	go func() { l.Stop(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not return within 10s")
	}
}

// TestTCPRejectsForeignRegister pins the single-replica contract of a TCP
// endpoint.
func TestTCPRejectsForeignRegister(t *testing.T) {
	l, _ := loopback(t, 2, TCPOptions{})
	defer func() {
		if recover() == nil {
			t.Fatal("Register with a foreign id did not panic")
		}
	}()
	l.eps[0].Register(1, func(int, any) {})
}

// TestTCPQueueCapBoundsBlockedPeer pins the outbound bound: a peer that
// refuses every connection must not grow its writer queue past QueueCap —
// the oldest frames are dropped and counted in Dropped().
func TestTCPQueueCapBoundsBlockedPeer(t *testing.T) {
	const cap = 8
	l, _ := loopback(t, 2, TCPOptions{QueueCap: cap})
	l.eps[1].Close() // refuse connections: the writer loops in dial backoff
	tr := l.eps[0]

	// Park the writer first: it pops a whole batch (up to cap frames) and then
	// redials forever, so how many of a burst it holds depends on when it
	// wakes. Once it holds this one frame, every later push is accounted for
	// exactly: cap of them queued, the rest each displaced by a newer one.
	vote := func(i int) *pbft.Prepare { return &pbft.Prepare{Instance: 0, View: 1, Seq: uint64(i), Replica: 0} }
	tr.Send(0, 1, vote(0))
	waitFor(t, func() bool { return tr.queueFor(1).depth() == 0 })
	const sends = 100
	for i := 1; i <= sends; i++ {
		tr.Send(0, 1, vote(i))
	}
	if d := tr.queueFor(1).depth(); d != cap {
		t.Fatalf("blocked peer queue depth %d, want the cap %d", d, cap)
	}
	if got := tr.Dropped(); got != sends-cap {
		t.Fatalf("Dropped() = %d, want %d", got, sends-cap)
	}
}
