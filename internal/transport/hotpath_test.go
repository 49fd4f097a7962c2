package transport

import (
	"encoding/binary"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pbft"
	"repro/internal/types"
	"repro/internal/wire"
)

// testProposal is the fixture of this package's correctness tests: a
// proposal whose block, transactions and byte slices are all non-empty,
// every amount 30. (The benchmark cells' traffic shape is
// netbench.Proposal, which imports this package and so is out of reach
// here.)
func testProposal() *pbft.PrePrepare {
	b := &types.Block{SN: 1, Sig: []byte{0xCA, 0xFE}}
	for i := 0; i < 4; i++ {
		tx := types.NewPayment("payer", "payee", 30, uint64(i))
		tx.Sig, tx.Payload = []byte{1, 2, 3, 4}, []byte{9, 9, 9, 9}
		b.Txs = append(b.Txs, *tx)
	}
	return &pbft.PrePrepare{Seq: 1, Block: b}
}

// TestBroadcastCopiesDoNotAlias pins the isolation contract of the
// encode-once broadcast: the sender's own loop is handed the message it
// sent, every other receiver decodes its own copy from the shared
// immutable frame (through its loop's long-lived Decoder, whose chunks
// serve message after message), so handlers on different node loops may
// mutate their message freely. Each handler first checks a sentinel field
// (a shared buffer would show another receiver's scribbles), then
// scribbles every byte slice and amount itself; under -race any aliasing
// between the copies, with the sender's original, between messages carved
// from one chunk, or with the pooled frame being reused by later
// broadcasts, is a detected data race.
func TestBroadcastCopiesDoNotAlias(t *testing.T) {
	const n, rounds = 3, 200
	p := NewProc(n)
	var delivered atomic.Uint64
	for i := 0; i < n; i++ {
		stamp := byte(0x10 + i)
		p.Register(i, func(from int, msg any) {
			pp, ok := msg.(*pbft.PrePrepare)
			if !ok {
				t.Errorf("receiver got %T, want *pbft.PrePrepare", msg)
				return
			}
			for j, tx := range pp.Block.Txs {
				if tx.Ops[0].Amount != 30 {
					t.Errorf("tx %d amount = %d before mutation, want 30 (copies alias?)", j, tx.Ops[0].Amount)
				}
			}
			for j := range pp.Block.Sig {
				pp.Block.Sig[j] = stamp
			}
			for j := range pp.Block.Txs {
				tx := &pp.Block.Txs[j]
				tx.Ops[0].Amount = types.Amount(stamp)
				for k := range tx.Sig {
					tx.Sig[k] = stamp
				}
				for k := range tx.Payload {
					tx.Payload[k] = stamp
				}
			}
			delivered.Add(1)
		})
	}
	p.Start(time.Now())
	defer p.Stop()
	for k := 0; k < rounds; k++ {
		p.Broadcast(0, testProposal())
	}
	waitFor(t, func() bool { return delivered.Load() == n*rounds })
	if e, d := p.EncodeErrors(), p.DecodeErrors(); e != 0 || d != 0 {
		t.Fatalf("wire errors during broadcast storm: encode=%d decode=%d", e, d)
	}
}

// selfDelivery checks what a three-replica cluster's collectors hold after
// replica 0 broadcast bcast and then sent self to itself: replica 0 got
// both pointers back as they were, replicas 1 and 2 each a copy of bcast
// sharing no memory with it or with each other, and the counters read what
// they read when every delivery crossed the codec — four deliveries at
// their encoded sizes.
func selfDelivery(t *testing.T, cols []*collector, bcast, self *pbft.PrePrepare, counters func() (messages, bytes uint64)) {
	t.Helper()
	waitFor(t, func() bool {
		return len(cols[0].snapshot()) == 2 && len(cols[1].snapshot()) == 1 && len(cols[2].snapshot()) == 1
	})
	own := cols[0].snapshot()
	if own[0].msg != any(bcast) || own[1].msg != any(self) {
		t.Fatal("the sender's handler did not receive the very messages it sent")
	}
	blocks := []*types.Block{bcast.Block}
	for _, c := range cols[1:] {
		got := c.snapshot()[0].msg.(*pbft.PrePrepare)
		if got == bcast || got.Block.Digest() != bcast.Block.Digest() {
			t.Fatal("a remote receiver's message is not a faithful copy of the broadcast")
		}
		blocks = append(blocks, got.Block)
	}
	for i, a := range blocks {
		for _, b := range blocks[i+1:] {
			if a == b || &a.Sig[0] == &b.Sig[0] || &a.Txs[0] == &b.Txs[0] ||
				&a.Txs[0].Ops[0] == &b.Txs[0].Ops[0] || &a.Txs[0].Payload[0] == &b.Txs[0].Payload[0] {
				t.Fatal("two replicas' copies of one broadcast share memory")
			}
		}
	}
	benc, err := wire.Encode(bcast)
	if err != nil {
		t.Fatal(err)
	}
	senc, err := wire.Encode(self)
	if err != nil {
		t.Fatal(err)
	}
	messages, bytes := counters()
	if want := uint64(3*len(benc) + len(senc)); messages != 4 || bytes != want {
		t.Fatalf("Messages = %d, Bytes = %d, want 4 and %d: a self-delivery counts at its encoded size", messages, bytes, want)
	}
}

// TestSelfDeliveryIsTheMessageSent pins the one delivery that skips the
// codec, on both real transports: a replica's message to itself (its share
// of a broadcast, a send to its own id) reaches its handler as the pointer
// it sent, while other replicas still get isolated copies and
// Messages/Bytes count all of them alike.
func TestSelfDeliveryIsTheMessageSent(t *testing.T) {
	t.Run("proc", func(t *testing.T) {
		p := NewProc(3)
		cols := make([]*collector, 3)
		for i := range cols {
			cols[i] = &collector{}
			p.Register(i, cols[i].handle)
		}
		p.Start(time.Now())
		defer p.Stop()
		bcast, self := testProposal(), testProposal()
		p.Broadcast(0, bcast)
		p.Send(0, 0, self)
		selfDelivery(t, cols, bcast, self, func() (uint64, uint64) { return p.Messages(), p.Bytes() })
	})
	t.Run("tcp", func(t *testing.T) {
		l, cols := loopback(t, 3, TCPOptions{})
		bcast, self := testProposal(), testProposal()
		l.Broadcast(0, bcast)
		l.Send(0, 0, self)
		selfDelivery(t, cols, bcast, self, func() (uint64, uint64) { return l.Messages(), l.Bytes() })
	})
}

// TestProcBroadcastAllocsPerMessage bounds the whole Proc data path —
// encode into a pooled frame, queue, decode through each loop's Decoder,
// dispatch — in allocations per delivered message: a decoded proposal
// costs its block's few headers, not an object per transaction, and the
// sender's own delivery costs nothing (9 before the Decoder, 3 with it).
func TestProcBroadcastAllocsPerMessage(t *testing.T) {
	const n, rounds = 4, 2000
	p := NewProc(n)
	var delivered atomic.Uint64
	for i := 0; i < n; i++ {
		p.Register(i, func(int, any) { delivered.Add(1) })
	}
	p.Start(time.Now())
	defer p.Stop()
	msg := testProposal()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 1; k <= rounds; k++ {
		p.Broadcast(0, msg)
		if k%100 == 0 { // keep the inboxes short: their growth is not the path's cost
			waitFor(t, func() bool { return delivered.Load() == uint64(n*k) })
		}
	}
	runtime.ReadMemStats(&after)
	perMsg := float64(after.Mallocs-before.Mallocs) / (n * rounds)
	t.Logf("%.2f allocations per delivered message", perMsg)
	if perMsg > 4 {
		t.Fatalf("%.1f allocations per delivered message, want at most 4", perMsg)
	}
}

// unencodable is outside the closed wire message set.
type unencodable struct{}

// TestProcEncodeErrorsCounted pins that an unencodable message is
// counted and dropped — not panicked on, not partially delivered.
func TestProcEncodeErrorsCounted(t *testing.T) {
	p := NewProc(2)
	col := &collector{}
	p.Register(0, col.handle)
	p.Register(1, col.handle)
	p.Start(time.Now())
	defer p.Stop()
	p.Send(0, 1, unencodable{})
	p.Broadcast(0, unencodable{})
	p.InjectTo(2, []int{1}, unencodable{})
	if got := p.EncodeErrors(); got != 3 {
		t.Fatalf("EncodeErrors = %d, want 3", got)
	}
	if got := p.Messages(); got != 0 {
		t.Fatalf("Messages = %d after encode failures, want 0", got)
	}
	time.Sleep(20 * time.Millisecond)
	if got := len(col.snapshot()); got != 0 {
		t.Fatalf("%d messages delivered from failed encodes, want 0", got)
	}
}

// TestTCPEncodeErrorsCounted pins the same contract on the socket
// transport: Send and Broadcast of an unencodable message count into
// EncodeErrors instead of panicking, and nothing reaches any replica.
func TestTCPEncodeErrorsCounted(t *testing.T) {
	l, cols := loopback(t, 2, TCPOptions{})
	l.Send(0, 1, unencodable{})
	l.Broadcast(0, unencodable{})
	if got := l.eps[0].EncodeErrors(); got != 2 {
		t.Fatalf("EncodeErrors = %d, want 2", got)
	}
	time.Sleep(20 * time.Millisecond)
	if got := len(cols[0].snapshot()) + len(cols[1].snapshot()); got != 0 {
		t.Fatalf("%d messages delivered from failed encodes, want 0", got)
	}
}

// TestTCPDecodeErrorsCounted pins that a malformed frame from a remote
// peer is dropped and counted without killing the connection: a valid
// frame following the garbage still arrives.
func TestTCPDecodeErrorsCounted(t *testing.T) {
	l, cols := loopback(t, 2, TCPOptions{})
	conn, err := net.Dial("tcp", l.eps[0].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hello [frameHeaderLen + 4]byte
	binary.BigEndian.PutUint32(hello[:], 4)
	binary.BigEndian.PutUint32(hello[frameHeaderLen:], 1)
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	garbage := []byte{0, 0, 0, 2, 0xFF, 0x01} // framed, but no such message tag
	if _, err := conn.Write(garbage); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return l.eps[0].DecodeErrors() == 1 })
	l.Send(1, 0, testProposal())
	waitFor(t, func() bool { return len(cols[0].snapshot()) == 1 })
	if got := l.eps[0].Messages(); got != 1 {
		t.Fatalf("Messages = %d, want 1 (the garbage frame must not count)", got)
	}
}
