package cluster

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestRunWithReplayedTrace freezes a synthetic workload into the CSV trace
// format and replays it through a full cluster — the paper's
// reset-and-replay methodology end to end.
func TestRunWithReplayedTrace(t *testing.T) {
	g := workload.New(workload.Config{Seed: 9, Accounts: 300})
	var buf bytes.Buffer
	if err := g.Export(&buf, 500); err != nil {
		t.Fatal(err)
	}
	trace, err := workload.ReadTrace(&buf, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg(core.OrthrusMode())
	cfg.Source = trace
	res := Run(cfg)
	if res.Confirmed == 0 {
		t.Fatal("trace replay confirmed nothing")
	}
	if res.Aborted > res.Submitted/20 {
		t.Fatalf("trace replay aborted %d of %d", res.Aborted, res.Submitted)
	}
}

// TestTraceReplayDeterministicAcrossRuns: two runs over the same trace and
// seed produce identical results.
func TestTraceReplayDeterministicAcrossRuns(t *testing.T) {
	g := workload.New(workload.Config{Seed: 10, Accounts: 100})
	var buf bytes.Buffer
	if err := g.Export(&buf, 200); err != nil {
		t.Fatal(err)
	}
	run := func() (int, time.Duration) {
		trace, err := workload.ReadTrace(bytes.NewReader(buf.Bytes()), 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallCfg(core.OrthrusMode())
		cfg.Source = trace
		res := Run(cfg)
		return res.Confirmed, res.Latency.Mean()
	}
	c1, l1 := run()
	c2, l2 := run()
	if c1 != c2 || l1 != l2 {
		t.Fatalf("trace replay nondeterministic: %d/%v vs %d/%v", c1, l1, c2, l2)
	}
}
