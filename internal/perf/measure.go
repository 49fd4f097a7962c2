package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/netbench"
)

// measureSim runs one simulator cell once — runs are deterministic, so a
// single iteration measures the cell exactly — and reads the allocation
// counters around it.
func measureSim(c SimCell) (Cell, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res := cluster.Run(c.Cfg)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	m := map[string]float64{
		"ns_per_op":          float64(elapsed.Nanoseconds()),
		"allocs_per_op":      float64(after.Mallocs - before.Mallocs),
		"bytes_per_op":       float64(after.TotalAlloc - before.TotalAlloc),
		"sim_events":         float64(res.Events),
		"sim_events_per_sec": float64(res.Events) / elapsed.Seconds(),
		"tput_ktps":          res.ThroughputTPS / 1000,
	}
	if c.Tier == TierSoak {
		m["peak_live_set"] = float64(res.LiveSetPeak)
		if n := len(res.LiveSetSamples); n > 0 {
			m["final_live_set"] = float64(res.LiveSetSamples[n-1].Total)
		}
	}
	return Cell{ID: c.ID, Metrics: m}, nil
}

// measureNet floods one transport cell through the netbench harness.
func measureNet(c NetCell) (Cell, error) {
	art, err := netbench.Run(netbench.Options{Backends: []string{c.Backend}, Sizes: []int{c.N}})
	if err != nil {
		return Cell{}, fmt.Errorf("perf: cell %s: %w", c.ID, err)
	}
	r := art.Cells[0]
	return Cell{ID: c.ID, Metrics: map[string]float64{
		"msgs":           float64(r.Msgs),
		"bytes":          float64(r.Bytes),
		"drops":          float64(r.Drops),
		"msgs_per_sec":   r.MsgsPerSec,
		"mb_per_sec":     r.MBPerSec,
		"allocs_per_msg": r.AllocsPerMsg,
		"p50_latency_ns": float64(r.P50LatencyNS),
		"p99_latency_ns": float64(r.P99LatencyNS),
	}}, nil
}

// measurers binds the named grid's cells to the functions measuring them.
func measurers(grid string) ([]func() (Cell, error), error) {
	var out []func() (Cell, error)
	switch grid {
	case gridScale:
		for _, c := range SimGrid() {
			out = append(out, func() (Cell, error) { return measureSim(c) })
		}
	case gridNet:
		for _, c := range NetGrid() {
			out = append(out, func() (Cell, error) { return measureNet(c) })
		}
	default:
		return nil, fmt.Errorf("perf: unknown grid %q (want scale or net)", grid)
	}
	return out, nil
}

// Run measures the named grid — "scale" (BENCH_scale.json) or "net"
// (BENCH_net.json) — and gates it against baseline when one is given; it
// is the SDK's RunBench, whose comment is the contract.
func Run(grid string, w io.Writer, baseline []byte) ([]byte, error) {
	cells, err := measurers(grid)
	if err != nil {
		return nil, err
	}
	return run(grid, cells, w, baseline)
}

func run(grid string, cells []func() (Cell, error), w io.Writer, baseline []byte) ([]byte, error) {
	var base *Artifact
	if baseline != nil {
		// Before anything is measured: a wrong file should fail now, not
		// after minutes of measurement.
		var err error
		if base, err = parse(baseline); err != nil {
			return nil, err
		}
	}
	fresh := Artifact{Schema: Schema}
	renderRow(w, grid, "cell", nil)
	for _, measure := range cells {
		// Every cell starts from the same pool state. cluster.Run recycles
		// simulators, and the transports their frames, through sync.Pools,
		// so without this a cell's allocation count depends on what the
		// previous cell (and the collector) happened to leave pooled — the
		// first run in a process allocates up to a fifth more than a
		// repeat. Two collections empty every pool (the first demotes
		// entries to the victim cache, the second drops them), so each
		// cell measures its cold-pool cost and a regenerated artifact
		// reproduces its own allocs_* columns.
		runtime.GC()
		runtime.GC()
		cell, err := measure()
		if err != nil {
			return nil, err
		}
		fresh.Cells = append(fresh.Cells, cell)
		renderRow(w, grid, cell.ID, cell.Metrics)
	}
	data, err := json.MarshalIndent(fresh, "", "  ")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	if base == nil {
		return data, nil
	}
	fmt.Fprintln(w, "\ndelta vs baseline:")
	return data, Compare(w, base, &fresh)
}
