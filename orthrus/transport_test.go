package orthrus

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/orthrus/scenariodsl"
)

// mustPreset builds a scenario preset for validation tests.
func mustPreset(t *testing.T, name string) *scenariodsl.Scenario {
	t.Helper()
	s, err := scenariodsl.Preset(name, 10, 20*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWithTransportValidation pins the real backend's option gate: every
// simulation-only knob is rejected with ErrInvalidConfig before anything
// runs.
func TestWithTransportValidation(t *testing.T) {
	bad := map[string][]Option{
		"analytic":  {WithTransport(TransportProc), WithAnalyticSB()},
		"scenario":  {WithTransport(TransportProc), WithScenario(mustPreset(t, "crash-recover"))},
		"straggler": {WithTransport(TransportProc), WithStragglers(1, 10)},
		"crash":     {WithTransport(TransportProc), WithFaults(1, time.Second)},
		"byzantine": {WithTransport(TransportProc), WithByzantine(1)},
		"range":     {func(c *Config) { c.Transport = Transport(99) }},
	}
	for name, opts := range bad {
		opts := opts
		t.Run(name, func(t *testing.T) {
			err := NewConfig(opts...).Validate()
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("Validate() = %v, want ErrInvalidConfig", err)
			}
		})
	}
	if err := NewConfig(WithTransport(TransportProc)).Validate(); err != nil {
		t.Fatalf("plain TransportProc config rejected: %v", err)
	}
	if got := TransportProc.String(); got != "proc" {
		t.Fatalf("TransportProc.String() = %q", got)
	}
	if got := TransportSim.String(); got != "sim" {
		t.Fatalf("TransportSim.String() = %q", got)
	}
}

// TestRunMany_RejectsRealTransport pins that wall-clock measurement runs
// cannot be fanned out over the worker pool they would contend with.
func TestRunMany_RejectsRealTransport(t *testing.T) {
	cfgs := []Config{NewConfig(), NewConfig(WithTransport(TransportProc))}
	if _, err := RunMany(context.Background(), cfgs, 0); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("RunMany = %v, want ErrInvalidConfig", err)
	}
}

// TestRunRealTransport drives a short cluster over the in-process real
// transport through the public SDK and checks the Result carries real
// measurements.
func TestRunRealTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock run; skipped under -short")
	}
	res, err := Run(context.Background(),
		WithTransport(TransportProc),
		WithReplicas(4),
		WithNet(LAN),
		WithLoad(300),
		WithDuration(time.Second),
		WithWarmup(250*time.Millisecond),
		WithDrain(8*time.Second),
		WithBatching(4096, 50*time.Millisecond),
		WithAccounts(64),
		WithPayments(1),
		WithFinalState(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel != "real" {
		t.Fatalf("Kernel = %q, want \"real\"", res.Kernel)
	}
	if res.Confirmed == 0 || res.ThroughputTPS <= 0 {
		t.Fatalf("no progress: confirmed=%d tput=%g", res.Confirmed, res.ThroughputTPS)
	}
	if res.Latency.Mean <= 0 {
		t.Fatalf("latency not measured: %+v", res.Latency)
	}
	if !res.Converged {
		t.Fatal("replica states diverged")
	}
}

// TestRunRealTransportCancel pins that a started TransportProc run honors
// its context: cancelled mid-flight (from the first confirmation), a run
// configured for a minute returns within moments, Halted, with the
// context's error and the measurements taken so far.
func TestRunRealTransportCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	start := time.Now()
	res, err := Run(ctx,
		WithTransport(TransportProc),
		WithReplicas(4),
		WithLoad(300),
		WithDuration(time.Minute),
		WithWarmup(100*time.Millisecond),
		WithBatching(4096, 20*time.Millisecond),
		WithAccounts(64),
		WithPayments(1),
		WithObserver(ObserverFuncs{Confirm: func(TxInfo, bool, time.Duration) { once.Do(cancel) }}),
	)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if res == nil || !res.Halted {
		t.Fatalf("Result = %+v, want a partial result with Halted set", res)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("cancelled run took %s of its configured minute", took)
	}
	if res.Submitted == 0 || res.Latency.Count == 0 {
		t.Fatalf("no measurements before the cancel: submitted=%d latency=%+v", res.Submitted, res.Latency)
	}
}
