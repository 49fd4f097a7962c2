package cluster

import (
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/workload"
)

// scaleCfg is a capped large-n configuration: fault-free, so from
// AnalyticFrom up Run simulates the analytic SB (the regime every n >= 32
// figure cell runs in), with a bounded transaction count and a short
// window, so a 100-replica cluster run stays test-sized.
func scaleCfg(mode core.Mode, n int) Config {
	return Config{
		N:        n,
		Protocol: mode,
		Net:      WAN,
		Workload: workload.Config{Accounts: 500, Seed: 3},
		LoadTPS:  300,
		TotalTxs: 150,
		Duration: 3 * time.Second,
		Warmup:   500 * time.Millisecond,
		Drain:    6 * time.Second,
		Params: core.Params{
			BatchSize:    256,
			BatchTimeout: 100 * time.Millisecond,
			EpochLen:     64,
			ViewTimeout:  10 * time.Second,
		},
		Seed: 11,
	}
}

// TestLargeClusterEveryProtocol is the first-class large-n check: each
// F-scale protocol commits client transactions at n = 100 (and the
// supported maximum 128 for Orthrus), with the quorum math f = (n-1)/3
// implied by f+1 replies per client-visible confirmation.
func TestLargeClusterEveryProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n sweep skipped in -short")
	}
	cells := []struct {
		mode core.Mode
		n    int
	}{
		{core.OrthrusMode(), 100},
		{baseline.ISSMode(), 100},
		{baseline.LadonMode(), 100},
		{core.OrthrusMode(), 128},
	}
	for _, c := range cells {
		c := c
		t.Run(c.mode.Name+"/n="+itoa(c.n), func(t *testing.T) {
			res := Run(scaleCfg(c.mode, c.n))
			if res.Submitted == 0 {
				t.Fatal("nothing submitted")
			}
			if res.Unconfirmed > res.Submitted/10 {
				t.Fatalf("%d of %d txs never reached f+1 replies", res.Unconfirmed, res.Submitted)
			}
			if res.Aborted > res.Submitted/20 {
				t.Fatalf("%d aborts of %d", res.Aborted, res.Submitted)
			}
			if res.Messages == 0 {
				t.Fatal("no modeled messages recorded")
			}
		})
	}
}

// TestLargeClusterDeterministic pins determinism through the analytic
// SB's quorum-time cache: two identical n=50 runs (fresh caches each)
// must agree on every count, and a straggled run must differ — proving
// the cache keys on the out-scale vector rather than serving stale
// times.
func TestLargeClusterDeterministic(t *testing.T) {
	a := Run(scaleCfg(core.OrthrusMode(), 50))
	b := Run(scaleCfg(core.OrthrusMode(), 50))
	if a.Confirmed != b.Confirmed || a.Events != b.Events || a.Messages != b.Messages ||
		a.Latency.Mean != b.Latency.Mean {
		t.Fatalf("identical configs diverged:\n%v\nvs\n%v", a, b)
	}
	scfg := scaleCfg(core.OrthrusMode(), 50)
	scfg.Stragglers = 1
	s := Run(scfg)
	if s.Latency.Mean == a.Latency.Mean && s.Events == a.Events {
		t.Fatal("straggled run identical to clean run; out-scale ignored")
	}
}

// TestMessagesPerCommitGrowsWithN pins the F-scale message metric: the
// modeled per-commit message cost at n = 50 must exceed n = 4 (PBFT
// traffic is quadratic in n), both on the analytic SB, and both must be
// recorded.
func TestMessagesPerCommitGrowsWithN(t *testing.T) {
	small := run(scaleCfg(core.OrthrusMode(), 4), true)
	large := Run(scaleCfg(core.OrthrusMode(), 50))
	if small.Confirmed == 0 || large.Confirmed == 0 {
		t.Fatalf("confirmations missing: n=4 %d, n=50 %d", small.Confirmed, large.Confirmed)
	}
	smallPer := float64(small.Messages) / float64(small.Confirmed)
	largePer := float64(large.Messages) / float64(large.Confirmed)
	if largePer <= smallPer {
		t.Fatalf("msgs/commit did not grow with n: n=4 %.1f, n=50 %.1f", smallPer, largePer)
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
