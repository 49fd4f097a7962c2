// Package perf is the repository's component perf gate, defined once:
// the cell lists of the two committed artifacts — BENCH_scale.json (the
// simulator hot path) and BENCH_net.json (the real-transport data path) —
// the one schema both are written in, and the tolerance table the
// comparator enforces. `orthrus-bench -bench` / `-bench-net` measure the
// grids through Run; the `go test -bench` mirrors (BenchmarkScale,
// BenchmarkTransport*Broadcast) iterate the same lists, so the artifact and the go-test numbers measure identical work
// by construction rather than by comment.
package perf

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// Simulator-grid tiers. A tier is a configuration family; it is the last
// segment of every cell id.
const (
	// TierBase is {Orthrus, ISS, Ladon} x {4, 10, 25} message-level PBFT
	// — the regime the allocation passes target — plus Orthrus x
	// {50, 100} on the analytic SB, all under the NIC model.
	TierBase = "base"
	// TierFScale is Orthrus x {250, 500, 1000} analytic, pulse-damped like
	// the F-scale figure's large tier: the large-n scheduler guard.
	TierFScale = "fscale"
	// TierSoak is one shortened F-soak cell (n = 25, 120 s of virtual
	// time, crash/recover churn, catch-up repairing it) whose live-set census
	// peak is the committed bounded-memory baseline.
	TierSoak = "soak"
)

// SimCell is one simulator-grid cell: the id it carries in
// BENCH_scale.json and in the go-test mirrors' sub-benchmark names, its
// tier, and the exact configuration both run.
type SimCell struct {
	ID   string
	Tier string
	Cfg  cluster.Config
}

// SimGrid lists the BENCH_scale.json cells in artifact order.
func SimGrid() []SimCell {
	var cells []SimCell
	add := func(tier string, mode core.Mode, n int, cfg cluster.Config) {
		cfg.N, cfg.Protocol, cfg.Net, cfg.Seed = n, mode, cluster.WAN, 42
		cfg.Workload = workload.Config{Accounts: 4000, Seed: 42}
		cells = append(cells, SimCell{ID: fmt.Sprintf("%s/n=%d/%s", mode.Name, n, tier), Tier: tier, Cfg: cfg})
	}
	base := cluster.Config{
		LoadTPS: 2000, Duration: 4 * time.Second, Warmup: time.Second, Drain: 8 * time.Second,
		Params: core.Params{BatchSize: 1024, BatchTimeout: 100 * time.Millisecond, EpochLen: 128},
		NIC:    true,
	}
	for _, mode := range []core.Mode{core.OrthrusMode(), baseline.ISSMode(), baseline.LadonMode()} {
		for _, n := range []int{4, 10, 25} {
			add(TierBase, mode, n, base)
		}
	}
	for _, n := range []int{50, 100} {
		add(TierBase, core.OrthrusMode(), n, base)
	}
	for _, n := range []int{250, 500, 1000} {
		add(TierFScale, core.OrthrusMode(), n, cluster.Config{
			LoadTPS: 100, Duration: 2 * time.Second, Warmup: 400 * time.Millisecond, Drain: 2 * time.Second,
			Params: core.Params{BatchSize: 4096, BatchTimeout: 500 * time.Millisecond, EpochLen: 1024},
			NIC:    true,
		})
	}
	const soakN, soakDur = 25, 120 * time.Second
	churn, err := scenario.Preset(scenario.SoakChurn, soakN, soakDur, 42)
	if err != nil {
		panic("perf: " + err.Error()) // the preset name and size are fixed
	}
	add(TierSoak, core.OrthrusMode(), soakN, cluster.Config{
		LoadTPS: 100, Duration: soakDur, Warmup: 12 * time.Second, Drain: 30 * time.Second,
		Params: core.Params{BatchSize: 4096, BatchTimeout: 10 * time.Second, EpochLen: 4,
			ViewTimeout: 60 * time.Second},
		SampleLiveSet: 5 * time.Second, Scenario: churn,
	})
	return cells
}

// NetBackends and NetSizes are the axes of the transport grid: the
// in-process transport and loopback TCP sockets, at the two cluster sizes
// the end-to-end benchmark's real workloads run.
var (
	NetBackends = []string{"proc", "tcp"}
	NetSizes    = []int{4, 10}
)

// NetCell is one transport-grid cell.
type NetCell struct {
	ID      string
	Backend string
	N       int
}

// NetGrid lists the BENCH_net.json cells in artifact order.
func NetGrid() []NetCell {
	var cells []NetCell
	for _, b := range NetBackends {
		for _, n := range NetSizes {
			cells = append(cells, NetCell{ID: fmt.Sprintf("%s/n=%d", b, n), Backend: b, N: n})
		}
	}
	return cells
}
