package cluster

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// scenarioBase is a small LAN cluster configuration for scenario tests:
// message-level PBFT, short view timeout so fault recovery fits the run.
func scenarioBase(n int, scn *scenario.Scenario) Config {
	return Config{
		N:        n,
		Protocol: core.OrthrusMode(),
		Net:      LAN,
		Scenario: scn,
		Workload: workload.Config{Accounts: 500, Seed: 42},
		LoadTPS:  400,
		Duration: 6 * time.Second,
		Warmup:   500 * time.Millisecond,
		Drain:    6 * time.Second,
		Params: core.Params{
			BatchSize:   64,
			ViewTimeout: 1 * time.Second,
		},
		NIC:  true,
		Seed: 42,
	}
}

// TestPartitionHealLiveness pins the partition semantics end to end: a
// 2/2 split of a 4-replica cluster leaves no side with a 2f+1 quorum, so
// no transaction commits during the cut; after the heal the view changes
// complete and the backlog catches up.
func TestPartitionHealLiveness(t *testing.T) {
	scn := scenario.New("split-heal").
		PartitionAt(2*time.Second, []int{0, 1}, []int{2, 3}).
		HealAt(4 * time.Second).
		Build()
	res := Run(scenarioBase(4, scn))

	if len(res.Phases) != 3 {
		t.Fatalf("want 3 phases (baseline/partition/heal), got %+v", res.Phases)
	}
	pre, cut, post := res.Phases[0], res.Phases[1], res.Phases[2]
	if pre.Confirmed == 0 {
		t.Fatal("no confirmations before the cut")
	}
	// In-flight replies may land just after the cut, but commits require a
	// 3-of-4 quorum neither side has: the second half of the cut window
	// must be silent. Series bins are 0.5 s wide.
	for bin := 5; bin < 8; bin++ { // [2.5s, 4.0s)
		if tput := res.Series.Throughput(bin); tput > 0 {
			t.Fatalf("commits across the cut: bin %d has %.1f tps", bin, tput)
		}
	}
	if cut.Confirmed >= pre.Confirmed {
		t.Fatalf("cut phase confirmed %d >= baseline %d", cut.Confirmed, pre.Confirmed)
	}
	if post.Confirmed == 0 {
		t.Fatal("no catch-up after heal: post-heal phase confirmed nothing")
	}
	if res.ViewChanges == 0 {
		t.Fatal("expected view changes while partitioned")
	}
}

// TestCrashRecoverScenario crashes two of seven replicas mid-run and
// recovers them: the cluster (f=2) must keep confirming throughout, the
// crashed leaders' instances must view-change, and phase windows must tile
// the run.
func TestCrashRecoverScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 7-replica cluster for 12 virtual seconds")
	}
	scn := scenario.New("crash-recover").
		CrashAt(2*time.Second, 5, 6).
		RecoverAt(4*time.Second, 5, 6).
		Build()
	res := Run(scenarioBase(7, scn))

	if len(res.Phases) != 3 {
		t.Fatalf("want 3 phases, got %+v", res.Phases)
	}
	for i, p := range res.Phases {
		if p.Confirmed == 0 {
			t.Fatalf("phase %d (%s) confirmed nothing: %+v", i, p.Label, res.Phases)
		}
		if i > 0 && res.Phases[i-1].End != p.Start {
			t.Fatalf("phase windows do not tile: %+v", res.Phases)
		}
	}
	if res.Phases[0].Label != "baseline" || res.Phases[1].Label != "crash" || res.Phases[2].Label != "recover" {
		t.Fatalf("phase labels wrong: %+v", res.Phases)
	}
	if res.ViewChanges == 0 {
		t.Fatal("crashed leaders' instances should have view-changed")
	}
}

// TestLoadSurgePhases checks the flash-crowd path: tripling the client
// rate mid-run must show up as a higher confirmed rate in the surge phase.
func TestLoadSurgePhases(t *testing.T) {
	scn := scenario.New("flash").
		LoadSurgeAt(2*time.Second, 3).
		LoadSurgeAt(4*time.Second, 1).
		Build()
	res := Run(scenarioBase(4, scn))

	if len(res.Phases) != 3 {
		t.Fatalf("want 3 phases, got %+v", res.Phases)
	}
	base, surge := res.Phases[0], res.Phases[1]
	if surge.ThroughputTPS < 1.5*base.ThroughputTPS {
		t.Fatalf("surge phase %.1f tps not clearly above baseline %.1f tps",
			surge.ThroughputTPS, base.ThroughputTPS)
	}
	// The submission count itself must reflect the surge: 6 s at 400 tps
	// plus 2 s of 3x is ~4000 rather than ~2400.
	if res.Submitted < 3200 {
		t.Fatalf("submitted %d, want the surged ~4000", res.Submitted)
	}
}

// TestScenarioRejectsAnalyticSB: scenarios mutate the message-level
// network, so the closed-form SB must be rejected loudly.
func TestScenarioRejectsAnalyticSB(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AnalyticSB + Scenario did not panic")
		}
	}()
	cfg := scenarioBase(4, scenario.New("x").HealAt(time.Second).Build())
	cfg.AnalyticSB = true
	Run(cfg)
}

// TestLoadSurgeExtremeMultiplierTerminates: the submission loop must keep
// advancing virtual time even when the surged interval truncates toward
// zero (the multiplier is Validate-bounded, but the clamp is defense in
// depth against tiny base intervals).
func TestLoadSurgeExtremeMultiplierTerminates(t *testing.T) {
	scn := scenario.New("extreme").LoadSurgeAt(time.Second, 100).Build()
	cfg := scenarioBase(4, scn)
	cfg.LoadTPS = 50000 // 20µs base interval -> 200ns surged
	cfg.TotalTxs = 3000 // bound the run; termination is what's under test
	cfg.Duration = 1500 * time.Millisecond
	cfg.Warmup = 200 * time.Millisecond
	cfg.Drain = 2 * time.Second
	res := Run(cfg) // must terminate
	if res.Submitted == 0 {
		t.Fatal("nothing submitted")
	}
}
