package experiments

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/workload"
)

// xvalConfig is one cross-validation cell, valid for both backends: LAN
// profile (the real transport is in-process, so the LAN model is the
// simulator's comparable prediction), message-level PBFT, no faults, and
// durations/loads scaled like the rest of the suite. Duration here is
// real wall-clock time on the real backend — the floor keeps a heavily
// scaled-down run long enough to cover warmup plus a few batches.
func xvalConfig(mode core.Mode, n int, scale float64) cluster.Config {
	dur := time.Duration(float64(4*time.Second) * scale)
	if dur < 800*time.Millisecond {
		dur = 800 * time.Millisecond
	}
	return cluster.Config{
		N:        n,
		Protocol: mode,
		Net:      cluster.LAN,
		LoadTPS:  100 + 900*scale,
		Duration: dur,
		Warmup:   dur / 4,
		Drain:    2 * dur,
		Params: core.Params{
			BatchSize:    4096,
			BatchTimeout: 50 * time.Millisecond,
			EpochLen:     256,
			ViewTimeout:  10 * time.Second,
		},
		Workload: workload.Config{Seed: 42},
		Seed:     42,
	}
}

// xvalConfigs is the figure grid, the S1 protocol panel at two cluster
// sizes, each call building every cell's Mode afresh so that no two runs
// share one.
func xvalConfigs(scale float64) []cluster.Config {
	var cfgs []cluster.Config
	for _, n := range []int{4, 10} {
		for _, mode := range scenarioProtocols() {
			cfgs = append(cfgs, xvalConfig(mode, n, scale))
		}
	}
	return cfgs
}

// xvalPlan is the cross-validation figure: every cell once through the
// discrete-event simulator and once over the in-process real transport,
// under the identical configuration and seeded workload. The figure's two
// tables put the simulator's prediction and the wall-clock measurement
// side by side, in the same row order.
func xvalPlan(scale float64, _ []string) plan {
	return plan{
		sim:  xvalConfigs(scale),
		real: xvalConfigs(scale),
		assemble: func(f *FigureResult, sim, real []*cluster.Result) {
			f.Tables = []Table{
				{Title: "X-val (a): sim-predicted (discrete-event simulator, LAN model)", Rows: sweepRows(sim, 0)},
				{Title: "X-val (b): real-measured (in-process transport, wall clock)", Rows: sweepRows(real, 0)},
			}
		},
	}
}
