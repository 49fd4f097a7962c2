package orthrus

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/runner"
)

// Run executes one simulated experiment built from the default
// configuration plus the given options, and returns its measurements.
// Equivalent to NewConfig(opts...).Run(ctx).
func Run(ctx context.Context, opts ...Option) (*Result, error) {
	return NewConfig(opts...).Run(ctx)
}

// Run validates the configuration and executes it. Invalid configurations
// return an error wrapping ErrInvalidConfig without running anything. A
// cancellable ctx is polled as the run advances — every 0.5 s of the
// run's clock, virtual in the simulator, wall on TransportProc; on
// cancellation the run stops and Run returns the partial Result (Halted
// true, measurements covering only the time before the stop) together
// with the context's error. A simulated run is deterministic for a given
// Config (ctx aside): equal seeds reproduce results exactly, serial or
// parallel.
func (c Config) Run(ctx context.Context) (*Result, error) {
	ccfg, err := c.clusterConfig()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ctx.Done() != nil {
		ccfg.Halt = func() bool { return ctx.Err() != nil }
	}
	run := cluster.Run
	if c.Transport == TransportProc {
		run = cluster.RunReal
	}
	res := run(ccfg)
	if res.Halted {
		return fromCluster(res), ctx.Err()
	}
	return fromCluster(res), nil
}

// RunMany executes every configuration and returns results indexed like
// the input, fanned out over a worker pool (workers 0 uses all cores, 1
// runs serially). Every simulation is seeded and self-contained, so a
// parallel sweep's results are identical to a serial one's. All
// configurations are validated up front — nothing runs if any is invalid,
// and the error names the offending index. Observers fire concurrently
// across runs. Ctx cancellation stops every run at its next 0.5 s window
// and returns the context's error alongside the results measured so far —
// runs that finished before the cancellation are complete, the rest carry
// Halted true.
func RunMany(ctx context.Context, cfgs []Config, workers int) ([]*Result, error) {
	ccfgs := make([]cluster.Config, len(cfgs))
	for i, c := range cfgs {
		var err error
		if ccfgs[i], err = c.clusterConfig(); err != nil {
			return nil, fmt.Errorf("config %d: %w", i, err)
		}
		if c.Transport == TransportProc {
			// Real-transport runs are wall-clock measurements; fanning
			// them out across one machine's cores would have them contend
			// for exactly the resources being measured. Run them one at a
			// time through Config.Run.
			return nil, fmt.Errorf("config %d: %w: %w", i, ErrInvalidConfig,
				&ValidationError{Field: "Transport", Reason: "RunMany is simulation-only; run TransportProc configs individually"})
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ctx.Done() != nil {
		for i := range ccfgs {
			ccfgs[i].Halt = func() bool { return ctx.Err() != nil }
		}
	}
	results := runner.Run(ccfgs, workers, cluster.Run)
	out := make([]*Result, len(results))
	for i, r := range results {
		out[i] = fromCluster(r)
	}
	return out, ctx.Err()
}
