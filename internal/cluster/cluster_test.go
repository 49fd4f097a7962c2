package cluster

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/workload"
)

func smallCfg(mode core.Mode) Config {
	return Config{
		N:        4,
		Protocol: mode,
		Net:      LAN,
		Workload: workload.Config{Accounts: 200, Seed: 1},
		LoadTPS:  400,
		Duration: 4 * time.Second,
		Warmup:   1 * time.Second,
		Drain:    6 * time.Second,
		Params: core.Params{
			BatchSize:    64,
			BatchTimeout: 50 * time.Millisecond,
			EpochLen:     16,
			ViewTimeout:  2 * time.Second,
		},
		Seed: 7,
	}
}

func TestRunOrthrusSmall(t *testing.T) {
	res := Run(smallCfg(core.OrthrusMode()))
	if res.Submitted == 0 {
		t.Fatal("nothing submitted")
	}
	if res.Confirmed == 0 {
		t.Fatalf("nothing confirmed of %d submitted", res.Submitted)
	}
	if res.ThroughputTPS <= 0 {
		t.Fatal("zero throughput")
	}
	if res.Latency.Count == 0 || res.Latency.Mean <= 0 {
		t.Fatal("no latency samples")
	}
	// Everything confirms by the end of the drain.
	if res.Unconfirmed != 0 {
		t.Fatalf("%d of %d txs never reached f+1 replies", res.Unconfirmed, res.Submitted)
	}
	if res.Aborted > res.Submitted/20 {
		t.Fatalf("%d aborts of %d", res.Aborted, res.Submitted)
	}
}

func TestRunEveryProtocolSmall(t *testing.T) {
	for _, p := range registry.All() {
		mode := p.New()
		t.Run(p.Name, func(t *testing.T) {
			res := Run(smallCfg(mode))
			if res.Confirmed == 0 {
				t.Fatalf("%s confirmed nothing (submitted %d)", mode.Name, res.Submitted)
			}
		})
	}
}

func TestRunAnalyticSBSmall(t *testing.T) {
	res := run(smallCfg(core.OrthrusMode()), true)
	if res.Confirmed == 0 {
		t.Fatal("analytic SB run confirmed nothing")
	}
}

// TestParamsResolveOnceForBothSBs pins that the harness resolves the engine
// Params once for everything that reads them: neither pbft.New nor
// sb.NewInstance defaults anything itself (an unresolved Window would stall
// every proposal), so on both SB paths a run with zero Params must measure
// exactly what a run with the defaults spelled out measures, and a
// non-default TxSize must reach both, through the one bandwidth model
// (the NIC egress queue).
func TestParamsResolveOnceForBothSBs(t *testing.T) {
	for _, analytic := range []bool{false, true} {
		cfg := smallCfg(core.OrthrusMode())
		cfg.Duration, cfg.NIC = 2*time.Second, true
		cfg.Params = core.Params{}
		zero := run(cfg, analytic)
		cfg.Params = core.Params{}.WithDefaults()
		explicit := run(cfg, analytic)
		if zero.Confirmed == 0 || !reflect.DeepEqual(zero, explicit) {
			t.Errorf("analytic=%v: zero Params and explicit defaults diverge:\n%d confirmed, %v (%d events, %d msgs)\n%d confirmed, %v (%d events, %d msgs)",
				analytic, zero.Confirmed, zero.Latency, zero.Events, zero.Messages,
				explicit.Confirmed, explicit.Latency, explicit.Events, explicit.Messages)
		}
		cfg.TxSize *= 20
		if big := run(cfg, analytic); big.Latency.Mean <= explicit.Latency.Mean {
			t.Errorf("analytic=%v: 20x TxSize did not raise latency: %v vs %v", analytic, big.Latency.Mean, explicit.Latency.Mean)
		}
	}
}

func TestAnalyticVsMessageLevelAgreeOnLatencyScale(t *testing.T) {
	// The analytic SB should produce latency within ~2x of message-level
	// PBFT under identical (jitter-free comparison is inside package sb;
	// here we check end-to-end scale).
	base := smallCfg(core.OrthrusMode())
	base.Net = WAN
	base.LoadTPS = 200
	msg := Run(base)
	anaRes := run(base, true)
	if msg.Latency.Count == 0 || anaRes.Latency.Count == 0 {
		t.Fatal("missing samples")
	}
	lo, hi := msg.Latency.Mean/2, msg.Latency.Mean*2
	if anaRes.Latency.Mean < lo || anaRes.Latency.Mean > hi {
		t.Fatalf("analytic mean %v outside [%v, %v] of message-level %v",
			anaRes.Latency.Mean, lo, hi, msg.Latency.Mean)
	}
}

func TestStragglerHurtsISSMoreThanOrthrus(t *testing.T) {
	// The paper's core claim at miniature scale: with one straggler, a
	// pre-determined protocol's latency inflates far more than Orthrus's.
	mk := func(mode core.Mode) Config {
		cfg := smallCfg(mode)
		cfg.Net = WAN
		cfg.Stragglers = 1
		cfg.LoadTPS = 200
		cfg.Duration = 6 * time.Second
		cfg.Drain = 30 * time.Second
		return cfg
	}
	orthrus := Run(mk(core.OrthrusMode()))
	iss := Run(mk(baseline.ISSMode()))
	if orthrus.Latency.Count == 0 || iss.Latency.Count == 0 {
		t.Fatal("missing samples")
	}
	if orthrus.Latency.Mean >= iss.Latency.Mean {
		t.Fatalf("Orthrus mean %v not below ISS mean %v under straggler",
			orthrus.Latency.Mean, iss.Latency.Mean)
	}
}

func TestDetectableFaultTriggersViewChangeAndRecovers(t *testing.T) {
	cfg := smallCfg(core.OrthrusMode())
	cfg.N = 4
	cfg.CrashFaults = 1
	cfg.CrashAt = 2 * time.Second
	cfg.Duration = 8 * time.Second
	cfg.Drain = 10 * time.Second
	cfg.ViewTimeout = 1 * time.Second
	res := Run(cfg)
	if res.ViewChanges == 0 {
		t.Fatal("no view change observed after crash fault")
	}
	if res.Confirmed == 0 {
		t.Fatal("system did not recover to confirm transactions")
	}
}

func TestUndetectableFaultsStillLive(t *testing.T) {
	cfg := smallCfg(core.OrthrusMode())
	cfg.ByzantineFaults = 1
	res := Run(cfg)
	if res.Confirmed == 0 {
		t.Fatal("no confirmations with one mute replica")
	}
	if res.ViewChanges != 0 {
		t.Fatalf("undetectable fault caused %d view changes", res.ViewChanges)
	}
}

func TestBreakdownStagesPopulated(t *testing.T) {
	res := Run(smallCfg(core.OrthrusMode()))
	if res.Breakdown.Total() <= 0 {
		t.Fatal("empty breakdown")
	}
}

func TestDeterministicResults(t *testing.T) {
	a := Run(smallCfg(core.OrthrusMode()))
	b := Run(smallCfg(core.OrthrusMode()))
	if a.Confirmed != b.Confirmed || a.Latency.Mean != b.Latency.Mean {
		t.Fatalf("nondeterministic: %d/%v vs %d/%v",
			a.Confirmed, a.Latency.Mean, b.Confirmed, b.Latency.Mean)
	}
}

func TestNICModelRun(t *testing.T) {
	cfg := smallCfg(core.OrthrusMode())
	cfg.NIC = true
	res := Run(cfg)
	if res.Confirmed == 0 {
		t.Fatal("NIC-model run confirmed nothing")
	}
}
