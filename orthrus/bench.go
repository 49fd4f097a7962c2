package orthrus

import (
	"io"

	"repro/internal/netbench"
	"repro/internal/perf"
)

// RunBench measures one of the repository's two gated component grids —
// "scale", the simulator hot path (wall time, allocations and simulated
// events per second over a fixed protocol x cluster-size grid, with the
// large-n and soak tiers), or "net", the real-transport data path
// RunNetBench measures — and returns the artifact document committed as
// BENCH_scale.json / BENCH_net.json. The cell table prints to w as cells
// complete. A non-nil baseline is an earlier document of
// the same grid: it is checked before anything runs, a per-column delta
// table follows the cell table, and when a gated column left its
// tolerance, lost its value, or a baseline cell went missing, the error
// lists every violation — the fresh document is still returned, so it can
// be written out and inspected. Timing columns are wall-clock facts about
// this machine; allocation counts, event counts and the live-set census
// reproduce run to run. `orthrus-bench -bench` and `-bench-net` are the
// CLI entry points.
func RunBench(grid string, w io.Writer, baseline []byte) ([]byte, error) {
	return perf.Run(grid, w, baseline)
}

// NetBenchArtifact is the structured outcome of a real-transport perf
// run: one cell per (backend, cluster size) with delivered-message rates,
// allocations per message and frame latency percentiles (an alias of the
// internal netbench result).
type NetBenchArtifact = netbench.Artifact

// NetBenchCell is one measured (backend, n) point of a NetBenchArtifact
// (an alias of the internal netbench type, like NetBenchArtifact).
type NetBenchCell = netbench.Cell

// NetBenchOptions tunes RunNetBench; the zero value measures the gated
// transport grid (proc and loopback-TCP backends, n in {4, 10}), and a
// nil Backends or Sizes alone takes that grid's axis.
type NetBenchOptions = netbench.Options

// NetBenchSchema identifies the typed result RunNetBench returns.
const NetBenchSchema = netbench.Schema

// RunNetBench measures the real-transport data path end to end — wire
// encoding, framing, queueing, delivery and decoding, with counting
// handlers in place of the consensus state machines — and returns one
// typed cell per (backend, cluster size). The numbers are wall-clock
// facts about this machine: rates and latencies vary with the host,
// allocations per message are host-stable. RunBench("net", ...) measures
// the same cells into the committed BENCH_net.json format.
func RunNetBench(opts NetBenchOptions) (*NetBenchArtifact, error) {
	if opts.Backends == nil {
		opts.Backends = perf.NetBackends
	}
	if opts.Sizes == nil {
		opts.Sizes = perf.NetSizes
	}
	return netbench.Run(opts)
}
