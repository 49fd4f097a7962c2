package transport

import (
	"encoding/binary"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pbft"
	"repro/internal/types"
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
// encode-once broadcast: every receiver decodes its own copy from the
// shared immutable frame, so handlers on different node loops may mutate
// their message freely. Each handler first checks a sentinel field (a
// shared buffer would show another receiver's scribbles), then scribbles
// every byte slice and amount itself; under -race any aliasing between
// the copies — or with the pooled frame being reused by later
// broadcasts — is a detected data race.
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
		p.Broadcast(0, 0, testProposal())
	}
	waitFor(t, func() bool { return delivered.Load() == n*rounds })
	if e, d := p.EncodeErrors(), p.DecodeErrors(); e != 0 || d != 0 {
		t.Fatalf("wire errors during broadcast storm: encode=%d decode=%d", e, d)
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
	p.Send(0, 1, 0, unencodable{})
	p.Broadcast(0, 0, unencodable{})
	p.Inject(2, 1, unencodable{})
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
	ts, cols := tcpCluster(t, 2)
	ts[0].Send(0, 1, 0, unencodable{})
	ts[0].Broadcast(0, 0, unencodable{})
	if got := ts[0].EncodeErrors(); got != 2 {
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
	ts, cols := tcpCluster(t, 2)
	conn, err := net.Dial("tcp", ts[0].Addr().String())
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
	waitFor(t, func() bool { return ts[0].DecodeErrors() == 1 })
	ts[1].Send(1, 0, 0, testProposal())
	waitFor(t, func() bool { return len(cols[0].snapshot()) == 1 })
	if got := ts[0].Messages(); got != 1 {
		t.Fatalf("Messages = %d, want 1 (the garbage frame must not count)", got)
	}
}
