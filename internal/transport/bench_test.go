package transport_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netbench"
	"repro/internal/perf"
	"repro/internal/transport"
)

// The Broadcast benchmarks mirror the BENCH_net.json cells as go-test
// benchmarks: same cell ids, same proposal shape (netbench.Proposal), one
// sender instead of the artifact's all-senders flood. This file is an
// external test package because perf and netbench import transport.

// netCells is the part of the transport grid one backend's Broadcast
// benchmark runs.
func netCells(backend string) []perf.NetCell {
	var cells []perf.NetCell
	for _, c := range perf.NetGrid() {
		if c.Backend == backend {
			cells = append(cells, c)
		}
	}
	return cells
}

// TestBroadcastBenchmarksRunTheGrid pins the mirrors to the artifact: the
// ids the two Broadcast benchmarks run are exactly the BENCH_net.json
// grid's.
func TestBroadcastBenchmarksRunTheGrid(t *testing.T) {
	ran := map[string]bool{}
	for _, c := range append(netCells("proc"), netCells("tcp")...) {
		ran[c.ID] = true
	}
	grid := perf.NetGrid()
	for _, c := range grid {
		if !ran[c.ID] {
			t.Errorf("grid cell %s has no go-test mirror", c.ID)
		}
	}
	if len(ran) != len(grid) {
		t.Errorf("mirrors run %d distinct cells, the grid has %d", len(ran), len(grid))
	}
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

// flood sends b.N messages through send, pausing every 256 to keep
// inboxes and outbound queues below their drop caps; each send yields
// fanout deliveries.
func flood(b *testing.B, delivered *atomic.Uint64, fanout int, send func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
		if i%256 == 255 {
			drainCounter(b, delivered, uint64(i+1)*uint64(fanout))
		}
	}
	drainCounter(b, delivered, uint64(b.N)*uint64(fanout))
}

// benchProc starts an n-node in-process cluster whose handlers bump the
// shared delivered counter.
func benchProc(b *testing.B, n int, delivered *atomic.Uint64) *transport.Proc {
	p := transport.NewProc(n)
	for i := 0; i < n; i++ {
		p.Register(i, func(int, any) { delivered.Add(1) })
	}
	p.Start(time.Now())
	b.Cleanup(p.Stop)
	return p
}

// BenchmarkTransportProcBroadcast measures one Proc broadcast to an
// n-replica cluster end to end (encode, enqueue, per-receiver decode,
// handler dispatch); allocs/op covers all n deliveries.
func BenchmarkTransportProcBroadcast(b *testing.B) {
	for _, c := range netCells("proc") {
		c := c
		b.Run(c.ID, func(b *testing.B) {
			var delivered atomic.Uint64
			p := benchProc(b, c.N, &delivered)
			msg := netbench.Proposal(0, 0)
			flood(b, &delivered, c.N, func() { p.Broadcast(0, msg) })
		})
	}
}

// BenchmarkTransportProcSend measures a single point-to-point Proc send.
func BenchmarkTransportProcSend(b *testing.B) {
	var delivered atomic.Uint64
	p := benchProc(b, 2, &delivered)
	msg := netbench.Proposal(0, 0)
	flood(b, &delivered, 1, func() { p.Send(0, 1, msg) })
}

// benchLoopback starts an n-endpoint loopback cluster whose handlers
// bump the shared delivered counter.
func benchLoopback(b *testing.B, n int, delivered *atomic.Uint64) *transport.Loopback {
	l, err := transport.NewLoopback(n, transport.TCPOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		l.Register(i, func(int, any) { delivered.Add(1) })
	}
	l.Start(time.Now())
	b.Cleanup(l.Stop)
	return l
}

// BenchmarkTransportTCPBroadcast measures one TCP broadcast to an
// n-endpoint loopback cluster end to end: encode, framing, queueing,
// socket writes and reads, decode, handler dispatch. allocs/op covers all
// n deliveries (one local, the rest over sockets).
func BenchmarkTransportTCPBroadcast(b *testing.B) {
	for _, c := range netCells("tcp") {
		c := c
		b.Run(c.ID, func(b *testing.B) {
			var delivered atomic.Uint64
			l := benchLoopback(b, c.N, &delivered)
			msg := netbench.Proposal(0, 0)
			flood(b, &delivered, c.N, func() { l.Broadcast(0, msg) })
		})
	}
}

// BenchmarkTransportTCPSend measures one point-to-point TCP frame.
func BenchmarkTransportTCPSend(b *testing.B) {
	var delivered atomic.Uint64
	l := benchLoopback(b, 2, &delivered)
	msg := netbench.Proposal(0, 0)
	flood(b, &delivered, 1, func() { l.Send(0, 1, msg) })
}
