package cluster

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sb"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// The loaded analytic-vs-message-level checks run at 10x the default
// transaction size, which puts the 1 Gbps egress knee at a tenth of the
// load, so a sweep costs seconds.
const egressTxSize = 5000

// egressCap is the most transactions per second the NIC model lets an
// n-replica Orthrus cluster confirm: each leader sends each transaction
// of its 1/n share n-1 times over its 1 Gbps egress.
func egressCap(n int) float64 {
	return float64(n) * 1e9 / (float64(n-1) * egressTxSize * 8)
}

func egressCfg(n int, load float64, analytic bool) Config {
	return Config{
		N: n, Protocol: core.OrthrusMode(), Net: WAN,
		Workload: workload.Config{Seed: 42},
		LoadTPS:  load, Duration: 4 * time.Second, Warmup: 2 * time.Second, Drain: 4 * time.Second,
		Params:     core.Params{BatchSize: 4096, BatchTimeout: 100 * time.Millisecond, TxSize: egressTxSize},
		AnalyticSB: analytic, NIC: true, Seed: 42,
	}
}

// runCountingHits runs cfg and returns its result with the quorumCache
// hits and proposals summed over the run's analytic instances.
func runCountingHits(cfg Config) (res *Result, hits, proposals uint64) {
	var insts []*sb.Instance
	newAnalytic = func(c sb.Config, sim *simnet.Sim, nw *simnet.Network) *sb.Instance {
		inst := sb.NewInstance(c, sim, nw)
		insts = append(insts, inst)
		return inst
	}
	defer func() { newAnalytic = sb.NewInstance }()
	res = Run(cfg)
	for _, inst := range insts {
		h, p := inst.CacheHits()
		hits, proposals = hits+h, proposals+p
	}
	return res, hits, proposals
}

// TestAnalyticEgressCapacity: offered 25 % more than a 1 Gbps egress can
// carry at n = 32, where the figures switch to the analytic SB, the
// analytic cluster confirms no more than the egress bound.
func TestAnalyticEgressCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("a saturated 32-replica run")
	}
	const n = 32
	bound := egressCap(n)
	res, hits, proposals := runCountingHits(egressCfg(n, 1.25*bound, true))
	t.Logf("n=%d offered %.0f tps: confirmed %.0f tps, egress bound %.0f (%.2f of it); quorumCache hits %d/%d = %.3f",
		n, 1.25*bound, res.ThroughputTPS, bound, res.ThroughputTPS/bound, hits, proposals, float64(hits)/float64(proposals))
	if res.ThroughputTPS > bound {
		t.Fatalf("analytic SB confirmed %.0f tps, more than the %.0f a 1 Gbps egress carries", res.ThroughputTPS, bound)
	}
	if res.ThroughputTPS < bound/4 {
		t.Fatalf("analytic SB confirmed only %.0f tps of a %.0f bound", res.ThroughputTPS, bound)
	}
}

// TestAnalyticAgreesWithMessageLevel sweeps offered load over a quarter to
// all of the egress bound at n = 8 and 16, on both SB implementations
// with the NIC model on. The knee (the sweep's largest throughput) and
// the mean latency of the lightest load must agree within the stated
// bands. The analytic SB leaves votes uncharged, so where a message-level
// vote queues behind its sender's own block copies it runs a little
// faster, most near saturation.
func TestAnalyticAgreesWithMessageLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("an eight-run load sweep per size")
	}
	const (
		kneeLo, kneeHi       = 0.95, 1.25 // analytic knee / message-level knee
		latencyLo, latencyHi = 0.90, 1.02 // analytic mean / message-level mean, lightest load
	)
	sizes, fracs := []int{8, 16}, []float64{0.25, 0.5, 0.75, 1}
	// The message-level runs share nothing, so they start now, at most
	// GOMAXPROCS at a time; the analytic ones run one after another on
	// this goroutine meanwhile, because runCountingHits swaps the
	// package-global newAnalytic.
	sem, msgs := make(chan struct{}, runtime.GOMAXPROCS(0)), map[float64]chan *Result{}
	for _, n := range sizes {
		for _, frac := range fracs {
			load, res := frac*egressCap(n), make(chan *Result, 1)
			msgs[load] = res
			go func() {
				sem <- struct{}{}
				res <- Run(egressCfg(n, load, false))
				<-sem
			}()
		}
	}
	for _, n := range sizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var kneeMsg, kneeAna float64
			var latMsg, latAna time.Duration
			var hits, proposals uint64
			for i, frac := range fracs {
				load := frac * egressCap(n)
				ana, h, p := runCountingHits(egressCfg(n, load, true))
				msg := <-msgs[load]
				hits, proposals = hits+h, proposals+p
				t.Logf("offered %6.0f tps: message-level %6.0f tps %v mean, analytic %6.0f tps %v mean, quorumCache hits %.3f",
					load, msg.ThroughputTPS, msg.Latency.Mean.Round(time.Millisecond),
					ana.ThroughputTPS, ana.Latency.Mean.Round(time.Millisecond), float64(h)/float64(p))
				kneeMsg, kneeAna = max(kneeMsg, msg.ThroughputTPS), max(kneeAna, ana.ThroughputTPS)
				if i == 0 {
					latMsg, latAna = msg.Latency.Mean, ana.Latency.Mean
				}
			}
			kneeRatio, latRatio := kneeAna/kneeMsg, float64(latAna)/float64(latMsg)
			t.Logf("knee: analytic %.0f / message-level %.0f tps = %.3f (band [%.2f, %.2f]); lightest-load mean: %.3f (band [%.2f, %.2f]); quorumCache hits %d/%d = %.3f",
				kneeAna, kneeMsg, kneeRatio, kneeLo, kneeHi, latRatio, latencyLo, latencyHi, hits, proposals, float64(hits)/float64(proposals))
			if kneeRatio < kneeLo || kneeRatio > kneeHi {
				t.Errorf("knee ratio %.3f outside [%.2f, %.2f]", kneeRatio, kneeLo, kneeHi)
			}
			if latRatio < latencyLo || latRatio > latencyHi {
				t.Errorf("lightest-load mean latency ratio %.3f outside [%.2f, %.2f]", latRatio, latencyLo, latencyHi)
			}
		})
	}
}
