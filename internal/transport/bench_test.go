package transport

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pbft"
	"repro/internal/types"
)

// benchProposal builds the proposal-shaped message the netbench harness
// broadcasts: a PrePrepare carrying a small block, the dominant bytes on
// a consensus wire.
func benchProposal() *pbft.PrePrepare {
	b := &types.Block{
		Instance: 0, SN: 1, Rank: 7,
		State:    types.StateVector{3, 1, 4, 1, 5, 9, 2, 6},
		Proposer: 0,
		Sig:      []byte{0xCA, 0xFE},
	}
	for i := 0; i < 4; i++ {
		b.Txs = append(b.Txs, types.Transaction{
			Ops: []types.Op{
				{Key: "payer-account-1", Type: types.Owned, Kind: types.OpDecrement, Amount: 30},
				{Key: "payee-account-2", Type: types.Owned, Kind: types.OpIncrement, Amount: 30},
			},
			Client:  "client-account-3",
			Nonce:   uint64(i),
			Sig:     []byte{1, 2, 3, 4, 5, 6, 7, 8},
			Payload: []byte{9, 9, 9, 9, 9, 9, 9, 9},
		})
	}
	return &pbft.PrePrepare{Instance: 0, View: 0, Seq: 1, Block: b}
}

// drainCounter waits until the delivered count reaches want.
func drainCounter(b *testing.B, delivered *atomic.Uint64, want uint64) {
	b.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for delivered.Load() < want {
		if time.Now().After(deadline) {
			b.Fatalf("drain stalled: %d/%d delivered", delivered.Load(), want)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// BenchmarkTransportProcBroadcast measures one Proc broadcast to an
// n-replica cluster end to end (encode, enqueue, per-receiver decode,
// handler dispatch); allocs/op covers all n deliveries.
func BenchmarkTransportProcBroadcast(b *testing.B) {
	for _, n := range []int{4, 10} {
		b.Run(map[int]string{4: "n4", 10: "n10"}[n], func(b *testing.B) {
			p := NewProc(n)
			var delivered atomic.Uint64
			for i := 0; i < n; i++ {
				p.Register(i, func(int, any) { delivered.Add(1) })
			}
			p.Start(time.Now())
			defer p.Stop()
			msg := benchProposal()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Broadcast(0, 0, msg)
				if i%256 == 255 { // bound the inbox backlog
					drainCounter(b, &delivered, uint64(i+1)*uint64(n))
				}
			}
			drainCounter(b, &delivered, uint64(b.N)*uint64(n))
		})
	}
}

// BenchmarkTransportProcSend measures a single point-to-point Proc send.
func BenchmarkTransportProcSend(b *testing.B) {
	p := NewProc(2)
	var delivered atomic.Uint64
	for i := 0; i < 2; i++ {
		p.Register(i, func(int, any) { delivered.Add(1) })
	}
	p.Start(time.Now())
	defer p.Stop()
	msg := benchProposal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Send(0, 1, 0, msg)
		if i%256 == 255 {
			drainCounter(b, &delivered, uint64(i+1))
		}
	}
	drainCounter(b, &delivered, uint64(b.N))
}

// benchTCPCluster builds an n-endpoint loopback cluster whose handlers
// bump the shared delivered counter.
func benchTCPCluster(b *testing.B, n int, delivered *atomic.Uint64) []*TCP {
	b.Helper()
	listeners := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		listeners[i] = ln
		peers[i] = ln.Addr().String()
	}
	ts := make([]*TCP, n)
	epoch := time.Now()
	for i := range ts {
		node := NewNode()
		tr, err := NewTCP(i, peers, node, TCPOptions{Listener: listeners[i]})
		if err != nil {
			b.Fatal(err)
		}
		tr.Register(i, func(int, any) { delivered.Add(1) })
		node.Start(epoch)
		ts[i] = tr
		b.Cleanup(func() { tr.Close(); node.Stop() })
	}
	return ts
}

// BenchmarkTransportTCPBroadcast measures one TCP broadcast to a
// 4-endpoint loopback cluster end to end: encode, framing, queueing,
// socket writes and reads, decode, handler dispatch. allocs/op covers
// all 4 deliveries (one local, three over sockets).
func BenchmarkTransportTCPBroadcast(b *testing.B) {
	const n = 4
	var delivered atomic.Uint64
	ts := benchTCPCluster(b, n, &delivered)
	msg := benchProposal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts[0].Broadcast(0, 0, msg)
		if i%256 == 255 { // keep outbound queues below the drop cap
			drainCounter(b, &delivered, uint64(i+1)*uint64(n))
		}
	}
	drainCounter(b, &delivered, uint64(b.N)*uint64(n))
}

// BenchmarkTransportTCPSend measures one point-to-point TCP frame.
func BenchmarkTransportTCPSend(b *testing.B) {
	var delivered atomic.Uint64
	ts := benchTCPCluster(b, 2, &delivered)
	msg := benchProposal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts[0].Send(0, 1, 0, msg)
		if i%256 == 255 {
			drainCounter(b, &delivered, uint64(i+1))
		}
	}
	drainCounter(b, &delivered, uint64(b.N))
}
