package runner

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/workload"
)

// stub returns an executor that counts its calls per configuration (keyed
// by N) and tags each result with its configuration's N, so tests can
// verify results land at their configuration's index no matter what the
// pool does.
func stub(calls []atomic.Int64) func(cluster.Config) *cluster.Result {
	return func(cfg cluster.Config) *cluster.Result {
		calls[cfg.N].Add(1)
		// Busy the fast runs less than the slow ones so completion order
		// scrambles relative to submission order.
		if cfg.N%2 == 0 {
			time.Sleep(time.Duration(cfg.N) * 100 * time.Microsecond)
		}
		return &cluster.Result{N: cfg.N, Protocol: fmt.Sprintf("job-%d", cfg.N)}
	}
}

func makeConfigs(n int) []cluster.Config {
	cfgs := make([]cluster.Config, n)
	for i := range cfgs {
		cfgs[i] = cluster.Config{N: i}
	}
	return cfgs
}

// TestRunOrderedResults: for every pool size, exec runs exactly once per
// configuration and each result lands at its configuration's index.
func TestRunOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 0} {
		cfgs := makeConfigs(37)
		calls := make([]atomic.Int64, len(cfgs))
		out := Run(cfgs, workers, stub(calls))
		if len(out) != len(cfgs) {
			t.Fatalf("workers=%d: %d results for %d configurations", workers, len(out), len(cfgs))
		}
		for i, res := range out {
			if got := calls[i].Load(); got != 1 {
				t.Fatalf("workers=%d: configuration %d executed %d times", workers, i, got)
			}
			if res == nil || res.N != i {
				t.Fatalf("workers=%d: result %d is %+v, want N=%d", workers, i, res, i)
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		if out := Run(nil, workers, stub(nil)); len(out) != 0 {
			t.Fatalf("workers=%d: expected no results, got %d", workers, len(out))
		}
	}
}

// TestRunRealClusterDeterminism runs a tiny real configuration through the
// pool serially and in parallel and checks the measured numbers agree —
// the cheap end of the determinism spectrum (the figure-level version
// lives in internal/experiments).
func TestRunRealClusterDeterminism(t *testing.T) {
	mk := func(seed int64) cluster.Config {
		return cluster.Config{
			N:        4,
			Protocol: core.OrthrusMode(),
			Net:      cluster.LAN,
			Workload: workload.Config{Accounts: 500, Seed: seed},
			LoadTPS:  400,
			Duration: 2 * time.Second,
			Warmup:   500 * time.Millisecond,
			Drain:    4 * time.Second,
			Params:   core.Params{BatchSize: 64},
			NIC:      true,
			Seed:     seed,
		}
	}
	cfgs := []cluster.Config{mk(1), mk(2), mk(3), mk(4)}
	serial := Run(cfgs, 1, cluster.Run)
	parallel := Run(cfgs, len(cfgs), cluster.Run)
	for i := range cfgs {
		s, p := serial[i], parallel[i]
		if s.Confirmed != p.Confirmed || s.ThroughputTPS != p.ThroughputTPS ||
			s.Latency.Mean != p.Latency.Mean || s.Events != p.Events {
			t.Fatalf("job %d diverged: serial %v parallel %v", i, s, p)
		}
	}
}
