// Package netbench measures the real-transport data path end to end:
// wire encoding, framing, queuing, socket (or in-process) delivery and
// decoding, with the consensus state machines replaced by
// counting/timestamping handlers so the numbers isolate the transport
// layer itself. It is the measuring engine behind the transport grid of
// internal/perf (`orthrus-bench -bench-net`, BENCH_net.json) and behind
// the SDK's RunNetBench; which cells are gated, and at what tolerance,
// is perf's business.
//
// Traffic shape: every replica broadcasts proposal-sized messages — a
// pbft.PrePrepare carrying a block of TxsPerBlock transactions — as fast
// as a global in-flight bound allows (the bound keeps outbound queues
// below their drop cap, mimicking a self-clocked protocol). Proposals
// are the dominant bytes on a consensus wire and exercise the full
// encode/decode path including nested collections; the block's
// ProposeNS field carries the send timestamp, so every delivery yields
// one frame-latency sample with no extra wire fields.
package netbench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pbft"
	"repro/internal/transport"
	"repro/internal/types"
)

// Schema identifies the typed result Run returns. v1 cells carry
// delivered message/byte totals, msgs/s, MB/s, allocations per delivered
// message, and p50/p99 frame latency (BENCH_net.json holds the same
// columns in perf.Schema). Only allocs/msg is host-stable.
const Schema = "orthrus-bench-net/v1"

// Cell is one measured (backend, n) point. A "message" is one delivered
// frame: a broadcast from one replica to an n-replica cluster counts n
// messages (self-delivery included), matching what Transport.Messages
// reports on real backends.
type Cell struct {
	// Backend is "proc" (in-process node loops) or "tcp" (loopback
	// sockets, one endpoint per replica).
	Backend string `json:"backend"`
	// N is the cluster size.
	N int `json:"n"`
	// Msgs is the number of delivered messages measured.
	Msgs uint64 `json:"msgs"`
	// Bytes is the total delivered encoded payload bytes.
	Bytes uint64 `json:"bytes"`
	// Drops counts outbound frames discarded at a peer-queue cap during
	// the run; nonzero means the in-flight bound failed to keep queues
	// below their caps and the rates underestimate the transport.
	Drops uint64 `json:"drops"`
	// MsgsPerSec is delivered messages per wall-clock second.
	MsgsPerSec float64 `json:"msgs_per_sec"`
	// MBPerSec is delivered payload megabytes (1e6 bytes) per second.
	MBPerSec float64 `json:"mb_per_sec"`
	// AllocsPerMsg is heap allocations per delivered message across the
	// whole process (senders, queues, sockets, decoders, handlers).
	AllocsPerMsg float64 `json:"allocs_per_msg"`
	// P50LatencyNS and P99LatencyNS are percentiles over per-delivery
	// frame latency: wall time from just before the sender's Broadcast
	// call to the receiver handler observing the message. Under a full
	// send throttle this is queueing-dominated — it measures the data
	// path under load, not an unloaded RTT.
	P50LatencyNS int64 `json:"p50_latency_ns"`
	P99LatencyNS int64 `json:"p99_latency_ns"`
}

// Artifact is what Run returns: one Cell per measured (backend, n).
type Artifact struct {
	Schema string `json:"schema"`
	Cells  []Cell `json:"cells"`
}

// Options tunes a Run, which measures exactly Backends x Sizes (the SDK's
// RunNetBench fills a nil axis from perf's transport grid).
type Options struct {
	// Broadcasts overrides the per-sender broadcast count (0 sizes each
	// cell to ~targetDeliveries total deliveries). Tests use small values.
	Broadcasts int
	// TxsPerBlock sets the proposal payload shape (0 = 4 transactions,
	// ~500 encoded bytes per message).
	TxsPerBlock int
	// Backends is the backend axis: "proc", "tcp".
	Backends []string
	// Sizes is the cluster-size axis.
	Sizes []int
}

// targetDeliveries sizes default cells: enough deliveries for stable
// rates on a quiet host, small enough to keep the whole grid seconds-scale.
const targetDeliveries = 120_000

// maxOutstanding bounds globally unacknowledged deliveries (sent*n minus
// handler-observed), keeping per-peer queues far below transport.TCP's
// 4096-frame drop cap so a default run measures a drop-free data path.
const maxOutstanding = 2048

// Run measures every (backend, size) cell of opts and returns them in
// that order.
func Run(opts Options) (*Artifact, error) {
	art := &Artifact{Schema: Schema}
	for _, backend := range opts.Backends {
		for _, n := range opts.Sizes {
			cell, err := runCell(backend, n, opts)
			if err != nil {
				return nil, fmt.Errorf("netbench: %s/n=%d: %w", backend, n, err)
			}
			art.Cells = append(art.Cells, cell)
		}
	}
	return art, nil
}

// cluster is what a cell drives of either backend: transport.Proc or
// transport.Loopback.
type cluster interface {
	types.Network
	Start(epoch time.Time)
	Stop()
	Messages() uint64
	Bytes() uint64
}

// Proposal builds the proposal-shaped message every transport cell — and
// every BenchmarkTransport* mirror — sends: a PrePrepare from replica from
// carrying a block of txs payments (0 means the standard 4, ~500 encoded
// bytes). A message is immutable once sent (the sender's own loop is
// handed the very pointer), so a sender that restamps ProposeNS per
// broadcast copies the two headers and shares the read-only transactions.
func Proposal(from, txs int) *pbft.PrePrepare {
	if txs <= 0 {
		txs = 4
	}
	b := &types.Block{
		Instance: from,
		SN:       1,
		Rank:     7,
		State:    types.StateVector{3, 1, 4, 1, 5, 9, 2, 6},
		Proposer: from,
		Sig:      []byte{0xCA, 0xFE, 0xBA, 0xBE},
	}
	for i := 0; i < txs; i++ {
		b.Txs = append(b.Txs, types.Transaction{
			Ops: []types.Op{
				{Key: types.Key(fmt.Sprintf("payer-%d-%d", from, i)), Type: types.Owned, Kind: types.OpDecrement, Amount: 30},
				{Key: types.Key(fmt.Sprintf("payee-%d-%d", from, i)), Type: types.Owned, Kind: types.OpIncrement, Amount: 30},
			},
			Client:  types.Key(fmt.Sprintf("client-%d-%d", from, i)),
			Nonce:   uint64(i),
			Sig:     []byte{1, 2, 3, 4, 5, 6, 7, 8},
			Payload: []byte{9, 9, 9, 9, 9, 9, 9, 9},
		})
	}
	return &pbft.PrePrepare{Instance: from, View: 0, Seq: uint64(from), Block: b}
}

func runCell(backend string, n int, opts Options) (Cell, error) {
	broadcasts := opts.Broadcasts
	if broadcasts <= 0 {
		broadcasts = targetDeliveries / (n * n)
	}

	// One latency slice per receiver, appended to only by that receiver's
	// event-loop goroutine; preallocated so the measured phase allocates
	// nothing in the harness itself.
	lats := make([][]int64, n)
	for i := range lats {
		lats[i] = make([]int64, 0, n*broadcasts)
	}
	var delivered atomic.Uint64
	epoch := time.Now()

	var c cluster
	drops := func() uint64 { return 0 }
	switch backend {
	case "proc":
		c = transport.NewProc(n)
	case "tcp":
		l, err := transport.NewLoopback(n, transport.TCPOptions{})
		if err != nil {
			return Cell{}, err
		}
		c, drops = l, l.Dropped
	default:
		return Cell{}, fmt.Errorf("unknown backend %q", backend)
	}
	for i := 0; i < n; i++ {
		c.Register(i, func(_ int, msg any) {
			if m, ok := msg.(*pbft.PrePrepare); ok {
				lats[i] = append(lats[i], int64(time.Since(epoch))-m.Block.ProposeNS)
			}
			delivered.Add(1)
		})
	}
	c.Start(epoch)
	defer c.Stop()

	// Measured phase: every replica floods broadcasts under the global
	// in-flight bound; allocations are read around the whole phase.
	var memBefore, memAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&memBefore)
	start := time.Now()

	var sent atomic.Uint64
	var wg sync.WaitGroup
	for from := 0; from < n; from++ {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			tmpl := Proposal(from, opts.TxsPerBlock)
			for k := 0; k < broadcasts; k++ {
				for sent.Load()*uint64(n)-delivered.Load() > maxOutstanding {
					time.Sleep(50 * time.Microsecond)
				}
				m := &struct {
					pp pbft.PrePrepare
					b  types.Block
				}{*tmpl, *tmpl.Block}
				m.pp.Block, m.b.ProposeNS = &m.b, int64(time.Since(epoch))
				c.Broadcast(from, &m.pp)
				sent.Add(1)
			}
		}(from)
	}
	wg.Wait()

	// Drain: every sent frame is delivered or (anomalously) dropped.
	expected := func() uint64 { return sent.Load()*uint64(n) - drops() }
	deadline := time.Now().Add(30 * time.Second)
	for delivered.Load() < expected() {
		if time.Now().After(deadline) {
			return Cell{}, fmt.Errorf("drain stalled: %d/%d delivered after 30s", delivered.Load(), expected())
		}
		time.Sleep(200 * time.Microsecond)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&memAfter)

	cell := Cell{
		Backend: backend,
		N:       n,
		Msgs:    c.Messages(),
		Bytes:   c.Bytes(),
		Drops:   drops(),
	}
	if s := elapsed.Seconds(); s > 0 {
		cell.MsgsPerSec = float64(cell.Msgs) / s
		cell.MBPerSec = float64(cell.Bytes) / s / 1e6
	}
	if cell.Msgs > 0 {
		cell.AllocsPerMsg = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(cell.Msgs)
	}
	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		cell.P50LatencyNS = all[len(all)/2]
		cell.P99LatencyNS = all[len(all)*99/100]
	}
	return cell, nil
}
