package repro

// Benchmark harness: one benchmark per evaluation figure (Sec. VII), a
// whole-suite benchmark that exercises the parallel runner
// (BenchmarkFigureSuite), plus ablations for the design choices
// ARCHITECTURE.md's "Data flow of one run" names in its consensus step
// and micro-benchmarks for the hot substrates. Figure benchmarks run
// scaled-down configurations (the full paper-sized sweeps are
// cmd/orthrus-bench -scale 1); the custom
// ReportMetric outputs — ktps, latency seconds — are the quantities the
// paper plots, so regressions in protocol behavior show up directly.

import (
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/order"
	"repro/internal/pbft"
	"repro/internal/perf"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/workload"
)

// benchCfg is a laptop-sized configuration of the Sec. VII-A setup.
func benchCfg(mode core.Mode, n int, net cluster.NetProfile) cluster.Config {
	return cluster.Config{
		N:        n,
		Protocol: mode,
		Net:      net,
		Workload: workload.Config{Accounts: 4000, Seed: 42},
		LoadTPS:  3000,
		Duration: 6 * time.Second,
		Warmup:   1 * time.Second,
		Drain:    20 * time.Second,
		Params: core.Params{
			BatchSize:    1024,
			BatchTimeout: 100 * time.Millisecond,
			EpochLen:     128,
			ViewTimeout:  10 * time.Second,
		},
		NIC:  true,
		Seed: 42,
	}
}

func reportCluster(b *testing.B, res *cluster.Result) {
	b.ReportMetric(res.ThroughputTPS/1000, "ktps")
	b.ReportMetric(res.Latency.Mean.Seconds(), "lat-s")
	b.ReportMetric(res.Latency.P99.Seconds(), "p99-s")
}

// BenchmarkFig1b regenerates the motivating breakdown: ISS with one 10x
// straggler; the reported global-s metric is the global-ordering stage that
// dominates total latency (92.8% in the paper).
func BenchmarkFig1b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(baseline.ISSMode(), 16, cluster.WAN)
		cfg.Stragglers = 1
		res := cluster.Run(cfg)
		b.ReportMetric(res.Breakdown.Mean(metrics.StageGlobal).Seconds(), "global-s")
		b.ReportMetric(res.Breakdown.Mean(metrics.StagePartial).Seconds(), "partial-s")
	}
}

// benchSweepPoint runs one (protocol, straggler) cell of Figs. 3/4 at n=16.
func benchSweepPoint(b *testing.B, mode core.Mode, net cluster.NetProfile, stragglers int) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(mode, 16, net)
		cfg.Stragglers = stragglers
		reportCluster(b, cluster.Run(cfg))
	}
}

// BenchmarkFig3 covers the WAN grid of Fig. 3 (per-protocol sub-benchmarks,
// with and without a straggler).
func BenchmarkFig3(b *testing.B) {
	for _, mode := range experiments.SweepProtocols() {
		mode := mode
		b.Run(mode.Name+"/straggler=0", func(b *testing.B) { benchSweepPoint(b, mode, cluster.WAN, 0) })
		b.Run(mode.Name+"/straggler=1", func(b *testing.B) { benchSweepPoint(b, mode, cluster.WAN, 1) })
	}
}

// BenchmarkFig4 covers the LAN grid of Fig. 4.
func BenchmarkFig4(b *testing.B) {
	for _, mode := range experiments.SweepProtocols() {
		mode := mode
		b.Run(mode.Name+"/straggler=0", func(b *testing.B) { benchSweepPoint(b, mode, cluster.LAN, 0) })
		b.Run(mode.Name+"/straggler=1", func(b *testing.B) { benchSweepPoint(b, mode, cluster.LAN, 1) })
	}
}

// BenchmarkFig3Scale exercises the replica-count axis from
// cluster.AnalyticFrom up, where Run simulates the analytic SB (the regime
// where message-level simulation is infeasible).
func BenchmarkFig3Scale(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		n := n
		b.Run(core.OrthrusMode().Name+"/n="+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(core.OrthrusMode(), n, cluster.WAN)
				cfg.Stragglers = 1
				reportCluster(b, cluster.Run(cfg))
			}
		})
	}
}

// BenchmarkFig5 sweeps the payment proportion (Orthrus, WAN, straggler).
func BenchmarkFig5(b *testing.B) {
	for _, frac := range []float64{-1, 0.46, 1.0} {
		frac := frac
		name := "pay=0%"
		if frac > 0 {
			name = "pay=" + itoa(int(frac*100)) + "%"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(core.OrthrusMode(), 16, cluster.WAN)
				cfg.Stragglers = 1
				cfg.Workload.PaymentFraction = frac
				reportCluster(b, cluster.Run(cfg))
			}
		})
	}
}

// BenchmarkFig6 compares the Orthrus vs ISS latency breakdown.
func BenchmarkFig6(b *testing.B) {
	for _, mode := range []core.Mode{core.OrthrusMode(), baseline.ISSMode()} {
		mode := mode
		b.Run(mode.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(mode, 16, cluster.WAN)
				cfg.Stragglers = 1
				res := cluster.Run(cfg)
				b.ReportMetric(res.Breakdown.Mean(metrics.StageGlobal).Seconds(), "global-s")
				b.ReportMetric(res.Breakdown.Total().Seconds(), "total-s")
			}
		})
	}
}

// BenchmarkFig7 runs the detectable-fault timeline (crash at t=9s).
func BenchmarkFig7(b *testing.B) {
	for _, faults := range []int{0, 1, 5} {
		faults := faults
		b.Run("f="+itoa(faults), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(core.OrthrusMode(), 16, cluster.WAN)
				cfg.Duration = 20 * time.Second
				cfg.CrashFaults = faults
				cfg.CrashAt = 9 * time.Second
				cfg.EpochLen = 64
				res := cluster.Run(cfg)
				reportCluster(b, res)
				b.ReportMetric(float64(res.ViewChanges), "view-changes")
			}
		})
	}
}

// BenchmarkFig8 runs the undetectable-fault sweep.
func BenchmarkFig8(b *testing.B) {
	for _, byz := range []int{0, 1, 5} {
		byz := byz
		b.Run("byz="+itoa(byz), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(core.OrthrusMode(), 16, cluster.WAN)
				cfg.ByzantineFaults = byz
				reportCluster(b, cluster.Run(cfg))
			}
		})
	}
}

// BenchmarkFigS1 runs one scenario-suite cell per preset: Orthrus under
// each dynamic fault/load timeline, reporting throughput, latency and the
// view changes the scenario provoked.
func BenchmarkFigS1(b *testing.B) {
	for _, name := range scenario.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(core.OrthrusMode(), 10, cluster.WAN)
				cfg.EpochLen = 64
				cfg.ViewTimeout = cfg.Duration / 5
				scn, err := scenario.Preset(name, cfg.N, cfg.Duration, cfg.Seed)
				if err != nil {
					b.Fatal(err)
				}
				cfg.Scenario = scn
				res := cluster.Run(cfg)
				reportCluster(b, res)
				b.ReportMetric(float64(res.ViewChanges), "view-changes")
			}
		})
	}
}

// BenchmarkFigureSuite regenerates the whole figure suite at a small scale
// through internal/runner, serially and with the full worker pool; the
// wall-clock gap between the two sub-benchmarks is the runner's speedup.
// Both produce identical FigureResults (see the determinism tests).
func BenchmarkFigureSuite(b *testing.B) {
	for _, workers := range []int{1, 0} {
		workers := workers
		name := "serial"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := experiments.Run(experiments.FigureIDs(), nil, workers, 0.05)
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != len(experiments.FigureIDs()) {
					b.Fatalf("got %d figures", len(results))
				}
			}
		})
	}
}

// --- the simulator perf grid's go-test mirrors (cells: internal/perf) ---

// scaleCells is the part of the simulator grid BenchmarkScale runs: all of
// it, or under -short the n <= 10 base cells.
func scaleCells(short bool) []perf.SimCell {
	var cells []perf.SimCell
	for _, c := range perf.SimGrid() {
		if !short || (c.Tier == perf.TierBase && c.Cfg.N <= 10) {
			cells = append(cells, c)
		}
	}
	return cells
}

// BenchmarkScale mirrors the BENCH_scale.json cells as go-test
// benchmarks: one run per cell with allocation accounting, under the
// cell's own id and configuration. The reported sim-events/s metric is
// the simulator's raw event rate; `orthrus-bench -bench -compare` is what
// CI gates, this is the same work under `go test -bench` tooling.
func BenchmarkScale(b *testing.B) {
	for _, c := range scaleCells(testing.Short()) {
		c := c
		b.Run(c.ID, func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				res := cluster.Run(c.Cfg)
				events += res.Events
				reportCluster(b, res)
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "sim-events/s")
		})
	}
}

// TestScaleBenchmarksRunTheGrid pins the mirror to the artifact: the ids
// BenchmarkScale runs are exactly the BENCH_scale.json grid's, and -short
// only ever trims.
func TestScaleBenchmarksRunTheGrid(t *testing.T) {
	ran := map[string]bool{}
	for _, c := range scaleCells(false) {
		if ran[c.ID] {
			t.Fatalf("cell %s runs twice", c.ID)
		}
		ran[c.ID] = true
	}
	grid := perf.SimGrid()
	for _, c := range grid {
		if !ran[c.ID] {
			t.Errorf("grid cell %s has no go-test mirror", c.ID)
		}
	}
	if len(ran) != len(grid) {
		t.Errorf("mirrors run %d cells, the grid has %d", len(ran), len(grid))
	}
	short := scaleCells(true)
	if len(short) == 0 || len(short) >= len(grid) {
		t.Errorf("-short runs %d of %d cells", len(short), len(grid))
	}
	for _, c := range short {
		if !ran[c.ID] {
			t.Errorf("-short cell %s is not a grid cell", c.ID)
		}
	}
}

// --- ablations (ARCHITECTURE.md "Data flow of one run", step 4: the design
// choices the consensus path is built from) ---

// BenchmarkAblationOrdering swaps Orthrus's dynamic glog for the
// predetermined one: contract latency under a straggler degrades toward
// ISS, showing the dynamic ordering's contribution.
func BenchmarkAblationOrdering(b *testing.B) {
	predet := core.Mode{
		Name:             "Orthrus-predet",
		NewGlobal:        func(m int) core.GlobalOrdering { return core.WorkerOrdering{Ord: order.NewPredetermined(m)} },
		FastPathPayments: true,
		SplitMultiPayer:  true,
	}
	for _, mode := range []core.Mode{core.OrthrusMode(), predet} {
		mode := mode
		b.Run(mode.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(mode, 16, cluster.WAN)
				cfg.Stragglers = 1
				reportCluster(b, cluster.Run(cfg))
			}
		})
	}
}

// BenchmarkAblationEscrow disables the payment fast path (escrow-at-plog):
// payments then wait for the global log exactly like Ladon, quantifying the
// fast path's latency win.
func BenchmarkAblationEscrow(b *testing.B) {
	noFast := baseline.LadonMode()
	noFast.Name = "Orthrus-noFastPath"
	for _, mode := range []core.Mode{core.OrthrusMode(), noFast} {
		mode := mode
		b.Run(mode.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(mode, 16, cluster.WAN)
				cfg.Stragglers = 1
				cfg.Workload.PaymentFraction = 1.0
				reportCluster(b, cluster.Run(cfg))
			}
		})
	}
}

// BenchmarkAblationSplit disables multi-payer splitting under a
// multi-payer-heavy payment workload. Payments burn no fee, so each arm must
// end holding exactly its genesis total: with or without splitting, every
// payer leg is debited once.
func BenchmarkAblationSplit(b *testing.B) {
	noSplit := core.OrthrusMode()
	noSplit.Name = "Orthrus-noSplit"
	noSplit.SplitMultiPayer = false
	for _, mode := range []core.Mode{core.OrthrusMode(), noSplit} {
		mode := mode
		b.Run(mode.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(mode, 16, cluster.WAN)
				cfg.Workload.PaymentFraction = 1.0
				cfg.Workload.MultiPayerFraction = 0.5
				cfg.CaptureState = true
				res := cluster.Run(cfg)
				genesis := ledger.NewStore()
				workload.New(cfg.Workload).Genesis()(genesis)
				if got, want := res.State.TotalOwned(), genesis.TotalOwned(); got != want {
					b.Fatalf("total owned %d, want the genesis total %d", got, want)
				}
				reportCluster(b, res)
			}
		})
	}
}

// --- micro-benchmarks for the hot substrates ---

// BenchmarkEscrow measures the escrow/commit cycle on the ledger.
func BenchmarkEscrow(b *testing.B) {
	st := ledger.NewStore()
	st.Credit("payer", types.Amount(b.N)*10+1000)
	tx := types.NewPayment("payer", "payee", 1, 1)
	op := tx.Ops[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := tx.ID()
		id[0] = byte(i)
		if !st.Escrow(op, id) {
			b.Fatal("escrow failed")
		}
		st.CommitEscrow(id)
	}
}

// BenchmarkDynamicOrderer measures Ladon's rank-based global ordering.
func BenchmarkDynamicOrderer(b *testing.B) {
	d := order.NewDynamic(16)
	blocks := make([]*types.Block, 16)
	for i := range blocks {
		blocks[i] = &types.Block{Instance: i}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := blocks[i%16]
		blk.SN = uint64(i / 16)
		blk.Rank = uint64(i + 1)
		d.Deliver(blk)
	}
}

// BenchmarkPBFTRound measures one full 4-replica consensus round including
// the event-driven network simulation.
func BenchmarkPBFTRound(b *testing.B) {
	sim := simnet.New(1)
	nw := simnet.NewNetwork(sim, 4, simnet.NewFixed(time.Millisecond), nil)
	delivered := 0
	engines := make([]*pbft.Engine, 4)
	for i := 0; i < 4; i++ {
		i := i
		cfg := pbft.Config{N: 4, F: 1, ID: i, Instance: 0, Timeout: time.Hour, Window: 1 << 20,
			OnDeliver: func(blk *types.Block) {
				if i == 0 {
					delivered++
				}
			}}
		engines[i] = pbft.New(cfg, nw, simnet.On(sim, i))
		nw.Register(i, func(from int, msg any) { engines[i].Handle(from, msg.(pbft.Message)) })
	}
	blk := &types.Block{Instance: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := *blk
		blk.SN = uint64(i)
		if err := engines[0].Propose(&blk); err != nil {
			b.Fatal(err)
		}
		sim.RunAll(0)
	}
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// BenchmarkWorkloadGen measures transaction generation.
func BenchmarkWorkloadGen(b *testing.B) {
	g := workload.New(workload.Config{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
