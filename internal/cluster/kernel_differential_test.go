package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/workload"
)

// Cluster-level kernel-differential suite: for every supported
// configuration family, a run on the conservative parallel kernel must
// produce a Result bit-identical to the serial reference — throughput,
// the full latency distribution, series bins, breakdown, counters, view
// changes, event totals and message counts — and the streaming observer
// hooks must fire with identical payloads in identical order.

// obsLog captures every observer callback a run makes, in order.
type obsLog struct {
	confirms []string
	windows  []WindowStat
	phases   []PhaseWindow
	blocks   []string
}

// observe wires the capturing hooks onto cfg.
func (o *obsLog) observe(cfg *Config, blocks bool) {
	cfg.OnConfirm = func(tx *types.Transaction, success bool, reply simnet.Time) {
		o.confirms = append(o.confirms, fmt.Sprintf("%s %v %d", tx.ID(), success, reply))
	}
	cfg.OnWindow = func(w WindowStat) { o.windows = append(o.windows, w) }
	if cfg.Scenario != nil {
		cfg.OnPhase = func(p PhaseWindow) { o.phases = append(o.phases, p) }
	}
	if blocks {
		cfg.OnBlockDeliver = func(replica, instance int, b *types.Block) {
			o.blocks = append(o.blocks, fmt.Sprintf("%d %d %d %x", replica, instance, b.SN, b.Digest()))
		}
	}
}

// diffResults fails on the first field where the two runs diverge.
func diffResults(t *testing.T, label string, serial, parallel *Result, so, po *obsLog) {
	t.Helper()
	if serial.Submitted != parallel.Submitted || serial.Confirmed != parallel.Confirmed ||
		serial.Aborted != parallel.Aborted {
		t.Fatalf("%s: counters diverged: serial (%d,%d,%d) parallel (%d,%d,%d)", label,
			serial.Submitted, serial.Confirmed, serial.Aborted,
			parallel.Submitted, parallel.Confirmed, parallel.Aborted)
	}
	if serial.ThroughputTPS != parallel.ThroughputTPS {
		t.Fatalf("%s: throughput diverged: %v vs %v", label, serial.ThroughputTPS, parallel.ThroughputTPS)
	}
	if !reflect.DeepEqual(serial.Latency, parallel.Latency) {
		t.Fatalf("%s: latency distribution diverged: %s vs %s", label,
			serial.Latency.String(), parallel.Latency.String())
	}
	if !reflect.DeepEqual(serial.Series, parallel.Series) {
		t.Fatalf("%s: time series diverged", label)
	}
	if !reflect.DeepEqual(serial.Breakdown, parallel.Breakdown) {
		t.Fatalf("%s: stage breakdown diverged", label)
	}
	if !reflect.DeepEqual(serial.Phases, parallel.Phases) {
		t.Fatalf("%s: phase windows diverged:\nserial   %+v\nparallel %+v", label, serial.Phases, parallel.Phases)
	}
	if serial.ViewChanges != parallel.ViewChanges {
		t.Fatalf("%s: view changes diverged: %d vs %d", label, serial.ViewChanges, parallel.ViewChanges)
	}
	if serial.Events != parallel.Events {
		t.Fatalf("%s: event totals diverged: %d vs %d", label, serial.Events, parallel.Events)
	}
	if serial.Messages != parallel.Messages {
		t.Fatalf("%s: message counts diverged: %d vs %d", label, serial.Messages, parallel.Messages)
	}
	if serial.Halted != parallel.Halted {
		t.Fatalf("%s: halt state diverged", label)
	}
	if so != nil {
		if !reflect.DeepEqual(so.confirms, po.confirms) {
			i := 0
			for ; i < len(so.confirms) && i < len(po.confirms) && so.confirms[i] == po.confirms[i]; i++ {
			}
			t.Fatalf("%s: confirm stream diverged at %d (lens %d/%d)", label, i, len(so.confirms), len(po.confirms))
		}
		if !reflect.DeepEqual(so.windows, po.windows) {
			t.Fatalf("%s: window stream diverged", label)
		}
		if !reflect.DeepEqual(so.phases, po.phases) {
			t.Fatalf("%s: phase stream diverged", label)
		}
		if !reflect.DeepEqual(so.blocks, po.blocks) {
			i := 0
			for ; i < len(so.blocks) && i < len(po.blocks) && so.blocks[i] == po.blocks[i]; i++ {
			}
			t.Fatalf("%s: block-delivery stream diverged at %d (lens %d/%d)", label, i, len(so.blocks), len(po.blocks))
		}
	}
}

// diffCfg is a short differential workload: heavy enough to cross shard
// boundaries constantly, short enough for the CI budget.
func diffCfg(net NetProfile, seed int64) Config {
	return Config{
		N:        8,
		Protocol: core.OrthrusMode(),
		Net:      net,
		Workload: workload.Config{Accounts: 150, Seed: seed},
		LoadTPS:  300,
		Duration: 2 * time.Second,
		Warmup:   500 * time.Millisecond,
		Drain:    3 * time.Second,
		Params: core.Params{
			BatchSize:    32,
			BatchTimeout: 40 * time.Millisecond,
			EpochLen:     16,
			ViewTimeout:  2 * time.Second,
		},
		Seed: seed,
	}
}

// runBoth executes cfg on both kernels with full observer capture and
// returns everything for comparison. Workers is fixed rather than
// GOMAXPROCS so the shard plan is machine-independent.
func runBoth(cfg Config, workers int, blocks bool) (sr, pr *Result, so, po *obsLog) {
	scfg := cfg
	so = &obsLog{}
	so.observe(&scfg, blocks)
	sr = Run(scfg)

	pcfg := cfg
	pcfg.Kernel = KernelParallel
	pcfg.Workers = workers
	po = &obsLog{}
	po.observe(&pcfg, blocks)
	pr = Run(pcfg)
	if pr.Shards < 2 {
		panic(fmt.Sprintf("parallel run fell back to serial (%d shards); the differential is vacuous", pr.Shards))
	}
	return
}

// TestKernelDifferentialBaseline pins the fault-free families on both
// network profiles across seeds and worker counts.
func TestKernelDifferentialBaseline(t *testing.T) {
	for _, net := range []NetProfile{WAN, LAN} {
		for seed := int64(1); seed <= 2; seed++ {
			cfg := diffCfg(net, seed)
			for _, workers := range []int{2, 4} {
				sr, pr, so, po := runBoth(cfg, workers, true)
				diffResults(t, fmt.Sprintf("%v seed=%d workers=%d", net, seed, workers), sr, pr, so, po)
			}
		}
	}
}

// TestKernelDifferentialStragglers pins the straggler family (slowdowns
// only — speed-ups are serial-only): outgoing-delay scaling and pulse
// scaling must not perturb equivalence.
func TestKernelDifferentialStragglers(t *testing.T) {
	cfg := diffCfg(WAN, 3)
	cfg.Stragglers = 2
	cfg.StragglerFactor = 10
	sr, pr, so, po := runBoth(cfg, 4, false)
	diffResults(t, "stragglers", sr, pr, so, po)
}

// TestKernelDifferentialFaults pins the crash (detectable) and Byzantine
// (undetectable) families, including view-change accounting.
func TestKernelDifferentialFaults(t *testing.T) {
	cfg := diffCfg(WAN, 4)
	cfg.DetectableFaults = 1
	cfg.FaultAt = 800 * time.Millisecond
	cfg.ViewTimeout = 1 * time.Second
	sr, pr, so, po := runBoth(cfg, 4, false)
	if sr.ViewChanges == 0 {
		t.Fatal("fault scenario drove no view changes; the differential is vacuous")
	}
	diffResults(t, "crash", sr, pr, so, po)

	cfg = diffCfg(LAN, 5)
	cfg.UndetectableFaults = 1
	sr, pr, so, po = runBoth(cfg, 3, false)
	diffResults(t, "byzantine", sr, pr, so, po)
}

// TestKernelDifferentialScenario pins the scenario family: mid-run
// crash/recover, a partition that heals, a load surge and a moving
// straggler, with per-phase windows and streaming phase emission.
func TestKernelDifferentialScenario(t *testing.T) {
	scn := scenario.New("diff-scn").
		CrashAt(600*time.Millisecond, 7).
		RecoverAt(1200*time.Millisecond, 7).
		PartitionAt(1400*time.Millisecond, []int{0, 1, 2, 3, 4, 5}, []int{6, 7}).
		HealAt(1700*time.Millisecond).
		LoadSurgeAt(900*time.Millisecond, 2).
		StraggleAt(1100*time.Millisecond, 5, 6).
		StraggleAt(1600*time.Millisecond, 1, 6).
		Build()
	cfg := diffCfg(WAN, 6)
	cfg.Scenario = scn
	cfg.CensorshipBlocks = 16
	sr, pr, so, po := runBoth(cfg, 4, false)
	if len(sr.Phases) == 0 {
		t.Fatal("scenario produced no phase windows")
	}
	diffResults(t, "scenario", sr, pr, so, po)
}

// TestKernelDifferentialStateTransferGC pins the long-horizon machinery on
// both kernels: with checkpoint GC and state transfer enabled and a victim
// crashing and recovering mid-run, the catch-up traffic, the GC points and
// every downstream measurement must stay bit-identical — collection and
// repair both happen inside deterministic event handlers, so the parallel
// kernel must replay them exactly.
func TestKernelDifferentialStateTransferGC(t *testing.T) {
	scn := scenario.New("st-churn").
		CrashAt(600*time.Millisecond, 7).
		RecoverAt(700*time.Millisecond, 7). // within the one-epoch archive hysteresis (4 x 40 ms)
		Build()
	cfg := diffCfg(WAN, 9)
	cfg.Scenario = scn
	cfg.StateTransfer = true
	cfg.EpochLen = 4
	sr, pr, so, po := runBoth(cfg, 4, true)
	if sr.StateTransferApplied == 0 {
		t.Fatal("no catch-up blocks applied; the state-transfer differential is vacuous")
	}
	if sr.StateTransferApplied != pr.StateTransferApplied {
		t.Fatalf("catch-up accounting diverged: serial %d parallel %d",
			sr.StateTransferApplied, pr.StateTransferApplied)
	}
	diffResults(t, "state-transfer", sr, pr, so, po)
}

// TestKernelDifferentialHalt pins early cancellation: both kernels must
// stop at the same virtual window with identical partial measurements.
func TestKernelDifferentialHalt(t *testing.T) {
	cfg := diffCfg(WAN, 7)
	windows := 0
	cfg.Halt = func() bool { windows++; return windows > 3 }
	so := &obsLog{}
	so.observe(&cfg, false)
	sr := Run(cfg)

	pcfg := diffCfg(WAN, 7)
	pwindows := 0
	pcfg.Halt = func() bool { pwindows++; return pwindows > 3 }
	pcfg.Kernel = KernelParallel
	pcfg.Workers = 4
	po := &obsLog{}
	po.observe(&pcfg, false)
	pr := Run(pcfg)

	if !sr.Halted {
		t.Fatal("serial run did not halt")
	}
	diffResults(t, "halt", sr, pr, so, po)
}

// TestKernelDifferentialProtocols sweeps every registered protocol mode
// through a short run on both kernels: the equivalence must hold for
// every global-ordering flavor, not just Orthrus.
func TestKernelDifferentialProtocols(t *testing.T) {
	for _, mode := range baseline.AllModes() {
		mode := mode
		t.Run(mode.Name, func(t *testing.T) {
			cfg := diffCfg(LAN, 11)
			cfg.Protocol = mode
			cfg.Duration = 1500 * time.Millisecond
			cfg.Drain = 2 * time.Second
			sr, pr, so, po := runBoth(cfg, 4, false)
			diffResults(t, mode.Name, sr, pr, so, po)
		})
	}
}

// TestKernelParallelStateConverges sanity-checks CaptureState under the
// parallel kernel: all replicas' ledgers agree and match the serial run.
func TestKernelParallelStateConverges(t *testing.T) {
	cfg := diffCfg(LAN, 13)
	cfg.CaptureState = true
	sr, pr, _, _ := runBoth(cfg, 4, false)
	if !sr.Converged || !pr.Converged {
		t.Fatalf("state divergence: serial=%v parallel=%v", sr.Converged, pr.Converged)
	}
	if !pr.State.Snapshot().Equal(sr.State.Snapshot()) {
		t.Fatal("serial and parallel final ledgers differ")
	}
}

// TestKernelParallelValidation pins the serial-only rejections.
func TestKernelParallelValidation(t *testing.T) {
	mustPanic := func(name string, cfg Config) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		Run(cfg)
	}
	base := diffCfg(WAN, 1)
	base.Kernel = KernelParallel

	cfg := base
	cfg.AnalyticSB = true
	mustPanic("analytic", cfg)

	cfg = base
	cfg.NIC = true
	mustPanic("nic", cfg)

	cfg = base
	cfg.Stragglers = 1
	cfg.StragglerFactor = 0.5
	mustPanic("speedup", cfg)

	cfg = base
	cfg.Scenario = scenario.New("fast").StraggleAt(time.Second, 0.5, 1).Build()
	mustPanic("scenario-speedup", cfg)
}

// TestKernelFallbackSerial pins the graceful fallback: configurations the
// planner cannot shard usefully (a single worker) run serially and still
// produce the identical result.
func TestKernelFallbackSerial(t *testing.T) {
	cfg := diffCfg(LAN, 17)
	sr := Run(cfg)
	cfg.Kernel = KernelParallel
	cfg.Workers = 1
	pr := Run(cfg)
	diffResults(t, "fallback", sr, pr, nil, nil)
}
