package cluster

import (
	"sync"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
	"repro/internal/workload"
)

// blockKey identifies one committed block slot for cross-validation.
type blockKey struct {
	Instance int
	SN       uint64
}

// digestLog is one replica's committed tx-carrying blocks.
type digestLog map[blockKey]types.BlockID

// newXvalSource builds a fresh deterministic workload source; each
// backend regenerates the scripted transactions from the same seed so the
// two runs never share mutable transaction objects.
func newXvalSource() workload.Source {
	return workload.New(workload.Config{
		Accounts:        64,
		PaymentFraction: 1,
		Seed:            7,
	})
}

const (
	xvalN   = 4
	xvalTxs = 200
)

// xvalConfig is the cluster both backends' replicas are configured from
// (through the harness's own replicaConfig): the engine defaults.
func xvalConfig(mode core.Mode) Config {
	return Config{N: xvalN, Protocol: mode}.withDefaults()
}

// runSimDigests commits the scripted workload on the simulated network
// and returns each replica's committed tx-carrying block digests. All
// transactions are submitted to every replica before the run starts, so
// batch assembly order is the submission order on both backends.
func runSimDigests(t *testing.T, mode core.Mode) []digestLog {
	t.Helper()
	sim := simnet.New(1)
	nw := simnet.NewNetwork(sim, xvalN, simnet.NewLAN(), func(msg any) int {
		return wire.ModeledSize(msg, xvalConfig(mode).TxSize)
	})
	gen := newXvalSource()
	genesis := gen.Genesis()
	logs := make([]digestLog, xvalN)
	replicas := make([]*core.Replica, xvalN)
	for i := 0; i < xvalN; i++ {
		i := i
		logs[i] = digestLog{}
		ccfg := replicaConfig(xvalConfig(mode), i, genesis)
		ccfg.OnBlockDeliver = func(instance int, b *types.Block) {
			if len(b.Txs) > 0 {
				logs[i][blockKey{instance, b.SN}] = b.Digest()
			}
		}
		replicas[i] = core.NewReplica(ccfg, simnet.On(sim, i), nw)
	}
	for k := 0; k < xvalTxs; k++ {
		tx := gen.Next()
		for _, r := range replicas {
			if err := r.SubmitTx(tx); err != nil {
				t.Fatalf("sim SubmitTx: %v", err)
			}
		}
	}
	for _, r := range replicas {
		r.Start()
	}
	sim.Run(simnet.Time(2 * time.Second))
	return logs
}

// runRealDigests commits the same scripted workload over the in-process
// real transport and returns the same per-replica digest logs. `want`
// (from the sim run) tells the poll loop when every replica has seen all
// cross-validated blocks, so the test ends as soon as consensus does.
func runRealDigests(t *testing.T, mode core.Mode, want digestLog) []digestLog {
	t.Helper()
	proc := transport.NewProc(xvalN)
	gen := newXvalSource()
	genesis := gen.Genesis()
	var mu sync.Mutex
	logs := make([]digestLog, xvalN)
	replicas := make([]*core.Replica, xvalN)
	for i := 0; i < xvalN; i++ {
		i := i
		logs[i] = digestLog{}
		ccfg := replicaConfig(xvalConfig(mode), i, genesis)
		ccfg.OnBlockDeliver = func(instance int, b *types.Block) {
			if len(b.Txs) > 0 {
				mu.Lock()
				logs[i][blockKey{instance, b.SN}] = b.Digest()
				mu.Unlock()
			}
		}
		replicas[i] = core.NewReplica(ccfg, proc.Node(i), proc)
	}
	// Pre-start submission on this goroutine, in generation order: every
	// replica's buckets hold the transactions in the identical sequence
	// the sim run used. The content-digest memoization is warmed first so
	// the shared *Transaction values are strictly read-only once the
	// replica goroutines exist.
	for k := 0; k < xvalTxs; k++ {
		tx := gen.Next()
		tx.ID()
		for _, r := range replicas {
			if err := r.SubmitTx(tx); err != nil {
				t.Fatalf("real SubmitTx: %v", err)
			}
		}
	}
	for _, r := range replicas {
		r.Start()
	}
	proc.Start(time.Now())
	defer proc.Stop()

	covered := func() bool {
		mu.Lock()
		defer mu.Unlock()
		for i := range logs {
			for k := range want {
				if _, ok := logs[i][k]; !ok {
					return false
				}
			}
		}
		return true
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) && !covered() {
		time.Sleep(5 * time.Millisecond)
	}
	proc.Stop()
	return logs
}

// TestCrossValidationDigests pins the tentpole property: the same seeded
// workload committed on the simulated network and on the in-process real
// transport produces identical block digests per (instance, sequence) at
// every replica, for all three protocols. Only transaction-carrying
// blocks are compared: the digests of empty heartbeat blocks cover the
// proposer's delivered-state vector and rank, which under real wall-clock
// scheduling depend on measured message interleaving rather than the
// modeled schedule. Tx-carrying first blocks are interleaving-independent
// (their proposals causally precede every delivery), so their digests —
// covering instance, sequence, rank, state vector, and the ordered
// transaction IDs — must agree bit for bit.
func TestCrossValidationDigests(t *testing.T) {
	modes := []core.Mode{core.OrthrusMode(), baseline.ISSMode(), baseline.LadonMode()}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.Name, func(t *testing.T) {
			t.Parallel()
			simLogs := runSimDigests(t, mode)
			want := simLogs[0]
			if len(want) == 0 {
				t.Fatal("sim run committed no tx-carrying blocks")
			}
			// All sim replicas agree with replica 0 (sanity: agreement).
			for i, l := range simLogs {
				for k, d := range want {
					if got, ok := l[k]; !ok || got != d {
						t.Fatalf("sim replica %d diverges at %+v", i, k)
					}
				}
			}
			realLogs := runRealDigests(t, mode, want)
			for i, l := range realLogs {
				for k, d := range want {
					got, ok := l[k]
					if !ok {
						t.Fatalf("real replica %d never committed block %+v", i, k)
					}
					if got != d {
						t.Errorf("real replica %d block %+v digest %s != sim %s", i, k, got, d)
					}
				}
			}
		})
	}
}

// overTCP is RunReal over loopback sockets; it fails t if an endpoint
// dropped a frame at its queue cap.
func overTCP(t *testing.T, cfg Config) *Result {
	t.Helper()
	var lb *transport.Loopback
	res := runReal(cfg, func(n int) realNet {
		var err error
		if lb, err = transport.NewLoopback(n, transport.TCPOptions{}); err != nil {
			t.Fatal(err)
		}
		return lb
	})
	if d := lb.Dropped(); d != 0 {
		t.Errorf("the endpoints dropped %d frames at their queue caps", d)
	}
	return res
}

// realRuns are the real clusters, by subtest name.
var realRuns = map[string]func(*testing.T, Config) *Result{
	"RunReal":    func(_ *testing.T, cfg Config) *Result { return RunReal(cfg) },
	"RunRealTCP": overTCP,
}

// TestRunRealSmoke pins the measurement harness end to end on both real
// clusters: a short run confirms transactions, reports throughput and
// latency, counts only protocol traffic, and converges replica state.
func TestRunRealSmoke(t *testing.T) {
	for name, run := range realRuns {
		t.Run(name, func(t *testing.T) {
			res := run(t, Config{
				N:            4,
				Protocol:     core.OrthrusMode(),
				Net:          LAN,
				LoadTPS:      400,
				Duration:     1200 * time.Millisecond,
				Warmup:       400 * time.Millisecond,
				Drain:        8 * time.Second,
				Params:       core.Params{BatchTimeout: 50 * time.Millisecond},
				Workload:     workload.Config{Accounts: 64, PaymentFraction: 1, Seed: 3},
				CaptureState: true,
			})
			if res.Submitted == 0 || res.Confirmed == 0 {
				t.Fatalf("no progress: submitted=%d confirmed=%d", res.Submitted, res.Confirmed)
			}
			if res.ThroughputTPS <= 0 {
				t.Fatalf("ThroughputTPS = %v", res.ThroughputTPS)
			}
			if res.Latency.Count == 0 || res.Latency.Mean <= 0 {
				t.Fatalf("latency not measured: %s", res.Latency)
			}
			if res.Messages == 0 {
				t.Fatal("no protocol messages counted")
			}
			if !res.Converged {
				t.Fatal("replica states diverged")
			}
			// The observer's traces ride its confirmations on this backend too.
			for s := metrics.StageSend; s <= metrics.StageReply; s++ {
				if res.Breakdown.Mean(s) <= 0 {
					t.Errorf("stage %v: mean %v, want > 0", s, res.Breakdown.Mean(s))
				}
			}
		})
	}
}

// TestProcFaults runs the static faults on the real backend at n = 4:
// every submission confirms with one replica slowed, crashed or Byzantine,
// and the straggler's instance delivers fewer blocks than any other.
func TestProcFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock runs")
	}
	for name, set := range map[string]func(*Config){
		"straggler": func(c *Config) { c.Stragglers = 1 },
		"crash":     func(c *Config) { c.CrashFaults, c.CrashAt = 1, 300*time.Millisecond },
		"byzantine": func(c *Config) { c.ByzantineFaults = 1 },
	} {
		t.Run(name, func(t *testing.T) {
			var blocks [4]int // per instance, at replica 0
			cfg := Config{
				N: 4, Protocol: core.OrthrusMode(), Net: LAN,
				LoadTPS: 200, Duration: time.Second, Warmup: 200 * time.Millisecond, Drain: 10 * time.Second,
				Params:   core.Params{BatchTimeout: 20 * time.Millisecond, ViewTimeout: 500 * time.Millisecond},
				Workload: workload.Config{Accounts: 64, Seed: 5},
				OnBlockDeliver: func(replica, instance int, _ *types.Block) {
					if replica == 0 {
						blocks[instance]++
					}
				},
			}
			set(&cfg)
			res := RunReal(cfg)
			if res.Submitted == 0 || res.Unconfirmed != 0 {
				t.Fatalf("%d of %d submissions unconfirmed", res.Unconfirmed, res.Submitted)
			}
			if name == "straggler" && blocks[3] >= min(blocks[0], blocks[1], blocks[2]) {
				t.Fatalf("straggler's instance delivered %d blocks, the others %v", blocks[3], blocks[:3])
			}
		})
	}
}

// TestRunRealRejectsSimOnlyKnobs pins the harness's refusal to silently
// ignore simulation-only configuration.
func TestRunRealRejectsSimOnlyKnobs(t *testing.T) {
	cases := map[string]Config{
		"nic":    {N: 4, Protocol: core.OrthrusMode(), NIC: true},
		"census": {N: 4, Protocol: core.OrthrusMode(), SampleLiveSet: time.Second},
	}
	for name, cfg := range cases {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("RunReal accepted a simulation-only knob")
				}
			}()
			RunReal(cfg)
		})
	}
}
