package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/workload"
)

// XValID identifies the sim-vs-real cross-validation figure. It is
// deliberately NOT part of FigureIDs: its real-measured cells are
// wall-clock experiments on the host machine, so their numbers vary run
// to run, and the deterministic figure suite — which the serial/parallel
// equivalence tests replay expecting byte-identical results — cannot
// contain it. cmd/orthrus-bench dispatches it separately ("-fig X-val"),
// and "all" never selects it.
const XValID = "X-val"

// XValInfo names the cross-validation figure for listings, next to the
// Figures() entries.
func XValInfo() FigureInfo {
	return FigureInfo{ID: XValID,
		Title: "Fig X-val: sim-predicted vs real-measured throughput/latency (in-process transport, n=4,10)"}
}

// xvalCells is the figure grid: the three protocols at two cluster sizes.
func xvalCells() ([]core.Mode, []int) {
	return []core.Mode{core.OrthrusMode(), baseline.ISSMode(), baseline.LadonMode()}, []int{4, 10}
}

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

// XVal runs the cross-validation figure: every cell once through the
// discrete-event simulator and once over the in-process real transport,
// under the identical configuration and seeded workload. The figure's
// two tables put the simulator's prediction and the wall-clock
// measurement side by side, in the same row order. Cells run serially —
// real-backend cells are wall-clock measurements, and running them
// concurrently would contend for the host's cores and distort exactly
// the numbers being validated.
func XVal(scale float64) (FigureResult, error) {
	if scale <= 0 || scale > 1 {
		return FigureResult{}, fmt.Errorf("experiments: scale must be in (0,1], got %g", scale)
	}
	modes, sizes := xvalCells()
	var simRows, realRows []Row
	for _, n := range sizes {
		for _, mode := range modes {
			cfg := xvalConfig(mode, n, scale)
			simRows = append(simRows, toRow(cluster.Run(cfg), 0))
			realRows = append(realRows, toRow(cluster.RunReal(cfg), 0))
		}
	}
	return FigureResult{
		Figure: XValID,
		Title:  XValInfo().Title,
		Tables: []Table{
			{Title: "X-val (a): sim-predicted (discrete-event simulator, LAN model)", Rows: simRows},
			{Title: "X-val (b): real-measured (in-process transport, wall clock)", Rows: realRows},
		},
	}, nil
}
