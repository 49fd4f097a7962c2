// Package runner executes independent cluster configurations across all
// cores. Every cluster.Run owns its own deterministic simulation (seeded
// RNGs, no shared mutable state), so fanning a configuration list over a
// worker pool and reassembling the results in list order produces output
// byte-identical to a serial sweep — the property the determinism
// regression tests pin down. The experiment figures (internal/experiments)
// and the SDK's RunMany run through this pool.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
)

// Run calls exec once per configuration and returns the results indexed
// like cfgs, whatever order they complete in: a configuration's position is
// its identity. Workers is the pool size: 0 (or negative) uses GOMAXPROCS,
// 1 runs serially, in order, on the calling goroutine. Exec is cluster.Run
// for simulations and, with one worker, cluster.RunReal for wall-clock
// runs; tests pass a stub.
func Run(cfgs []cluster.Config, workers int, exec func(cluster.Config) *cluster.Result) []*cluster.Result {
	out := make([]*cluster.Result, len(cfgs))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	if workers <= 1 {
		for i, cfg := range cfgs {
			out[i] = exec(cfg)
		}
		return out
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(cfgs) {
					return
				}
				out[i] = exec(cfgs[i])
			}
		}()
	}
	wg.Wait()
	return out
}
