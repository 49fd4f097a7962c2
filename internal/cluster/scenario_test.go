package cluster

import (
	"maps"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/types"
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

// TestPartitionHealLiveness pins the partition semantics end to end, on
// the simulator and both real clusters: a 2/2 split of a 4-replica cluster
// leaves no side with a 2f+1 quorum, so no transaction commits during the
// cut; after the heal the view changes complete and the backlog catches up.
func TestPartitionHealLiveness(t *testing.T) {
	scn := scenario.New("split-heal").
		PartitionAt(2*time.Second, []int{0, 1}, []int{2, 3}).
		HealAt(4 * time.Second).
		Build()
	runs := map[string]func(*testing.T, Config) *Result{"Run": func(_ *testing.T, cfg Config) *Result { return Run(cfg) }}
	maps.Copy(runs, realRuns)
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			cfg := scenarioBase(4, scn)
			if name != "Run" {
				if testing.Short() {
					t.Skip("multi-second wall-clock run")
				}
				cfg.NIC = false // real links
			}
			checkPartitionHeal(t, run(t, cfg))
		})
	}
}

func checkPartitionHeal(t *testing.T, res *Result) {
	t.Helper()
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
		if tput := res.Windows[bin].ThroughputTPS; tput > 0 {
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

// TestSameInstantEventsFireInTimelineOrder: two events at one instant fire
// in the order the timeline lists them. A crash then a recovery of replica
// 3 at t leaves it delivering blocks after t; the recovery first is a no-op
// on a live replica, and the crash then silences it for good.
func TestSameInstantEventsFireInTimelineOrder(t *testing.T) {
	const at, victim = time.Second, 3
	for _, crashFirst := range []bool{true, false} {
		b := scenario.New("same-instant")
		if crashFirst {
			b.CrashAt(at, victim).RecoverAt(at, victim)
		} else {
			b.RecoverAt(at, victim).CrashAt(at, victim)
		}
		cfg := smallCfg(core.OrthrusMode())
		cfg.Scenario = b.Build()
		// The window ticks are the test's clock: the one closing at t runs
		// after the events at t, which were scheduled before it.
		delivered, atT := 0, -1
		cfg.OnBlockDeliver = func(replica, _ int, _ *types.Block) {
			if replica == victim {
				delivered++
			}
		}
		cfg.OnWindow = func(w WindowStat) {
			if w.End == at {
				atT = delivered
			}
		}
		Run(cfg)
		if atT <= 0 {
			t.Fatalf("crashFirst=%v: replica %d delivered %d blocks before %v, want some", crashFirst, victim, atT, at)
		}
		if after := delivered - atT; crashFirst && after == 0 {
			t.Fatalf("crash then recover at %v: replica %d delivered nothing after", at, victim)
		} else if !crashFirst && after != 0 {
			t.Fatalf("recover then crash at %v: replica %d delivered %d blocks after", at, victim, after)
		}
	}
}

// TestStaticCrashIsAScenarioCrash: CrashFaults/CrashAt is the same fault as
// a scenario crash of the same replicas at the same time — every Result
// field agrees but Phases, which only a scenario reports.
func TestStaticCrashIsAScenarioCrash(t *testing.T) {
	cfg := smallCfg(core.OrthrusMode())
	cfg.N = 7
	cfg.Duration = 3 * time.Second
	cfg.Drain = 3 * time.Second
	static := cfg
	static.CrashFaults, static.CrashAt = 2, 2*time.Second
	scripted := cfg
	scripted.Scenario = scenario.New("crash").CrashAt(2*time.Second, 6, 5).Build()

	want, got := Run(static), Run(scripted)
	if len(got.Phases) != 2 || want.Phases != nil {
		t.Fatalf("phases: static %+v, scenario %+v", want.Phases, got.Phases)
	}
	if want.ViewChanges == 0 {
		t.Fatal("no view change: the crash did not take effect")
	}
	got.Phases = nil
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("static crash and scenario crash differ:\nstatic   %v\nscenario %v", want, got)
	}
}

// TestHaltedScenarioRun stops a scenario run at several points, mid-phase
// and on a phase boundary. Every window clamps to the stop and counts only
// the replies that landed before it; OnPhase sees exactly the phases that
// opened before the stop, each equal to its Result.Phases entry. The run's
// own numbers stop there too: Confirmed, Aborted and the latency summary
// count only the window's replies that landed before the stop, the series
// every reply before it, Unconfirmed the submissions with none, the rate
// divides by the part of the window before it, and no window streamed or
// returned opens at or after it.
func TestHaltedScenarioRun(t *testing.T) {
	starts := []time.Duration{0, 1500 * time.Millisecond, 2500 * time.Millisecond, 3500 * time.Millisecond}
	scn := scenario.New("halted").
		StraggleAt(starts[1], 5, 3).
		StraggleAt(starts[2], 1, 3).
		LoadSurgeAt(starts[3], 2).
		Build()
	for _, ticks := range []int{3, 5, 6, 7} { // halts at 1.5s, 2.5s, 3s, 3.5s
		stop := time.Duration(ticks) * 500 * time.Millisecond
		cfg := smallCfg(core.OrthrusMode())
		cfg.Net = WAN // long reply hops: replies are in flight at the stop
		cfg.Scenario = scn
		polls, landed, inWindow, aborted := 0, 0, 0, 0
		cfg.Halt = func() bool { polls++; return polls == ticks }
		cfg.OnConfirm = func(_ *types.Transaction, success bool, reply types.Time) {
			if reply >= types.Time(stop) {
				return
			}
			landed++
			if reply >= types.Time(cfg.Warmup) && reply <= types.Time(cfg.Duration) {
				inWindow++
				if !success {
					aborted++
				}
			}
		}
		var streamed []PhaseWindow
		cfg.OnPhase = func(p PhaseWindow) { streamed = append(streamed, p) }
		var windows []WindowStat
		cfg.OnWindow = func(w WindowStat) { windows = append(windows, w) }
		res := Run(cfg)

		if res.Confirmed != inWindow || res.Latency.Count != inWindow || res.Aborted != aborted ||
			res.Unconfirmed != res.Submitted-landed {
			t.Fatalf("stop %v: confirmed %d, latency over %d, aborted %d, unconfirmed %d; %d window replies (%d aborts) and %d of %d landed before the stop",
				stop, res.Confirmed, res.Latency.Count, res.Aborted, res.Unconfirmed, inWindow, aborted, landed, res.Submitted)
		}
		if want := float64(inWindow) / (stop - cfg.Warmup).Seconds(); res.ThroughputTPS != want {
			t.Fatalf("stop %v: throughput %v, want %v", stop, res.ThroughputTPS, want)
		}
		binned := 0
		for _, w := range res.Windows {
			binned += w.Confirmed
		}
		if binned != landed {
			t.Fatalf("stop %v: windows count %d replies, %d landed before the stop", stop, binned, landed)
		}
		for _, w := range append(windows, res.Windows...) {
			if w.Start >= stop {
				t.Fatalf("stop %v: window [%v,%v) opens at or after the stop", stop, w.Start, w.End)
			}
		}

		if !res.Halted || len(res.Phases) != len(starts) {
			t.Fatalf("stop %v: halted=%v, phases %+v", stop, res.Halted, res.Phases)
		}
		opened, sum := 0, 0
		for i, p := range res.Phases {
			if p.Start > stop || p.End > stop {
				t.Fatalf("stop %v: phase %d [%v,%v) not clamped", stop, i, p.Start, p.End)
			}
			if starts[i] < stop {
				opened++
			} else if p.Confirmed != 0 {
				t.Fatalf("stop %v: preempted phase %d counted %d", stop, i, p.Confirmed)
			}
			sum += p.Confirmed
		}
		if sum != landed {
			t.Fatalf("stop %v: phases count %d replies, %d landed before the stop", stop, sum, landed)
		}
		if !reflect.DeepEqual(streamed, res.Phases[:opened]) {
			t.Fatalf("stop %v: streamed %+v, want the %d opened phases of %+v", stop, streamed, opened, res.Phases)
		}
	}
}
