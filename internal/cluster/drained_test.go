package cluster

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestDrainedProposalLAN pins a seeded LAN run at n = 4 whose leaders'
// pipelines drain faster than the 20 ms pulse: the drained-pipeline
// proposals fire, every submission confirms, and the run's count of them
// and its mean latency are what they were when the rule went in. The same
// run proposing on the pulse alone read a 12.359503 ms mean.
func TestDrainedProposalLAN(t *testing.T) {
	res := Run(Config{
		N: 4, Protocol: core.OrthrusMode(), Net: LAN,
		Workload: workload.Config{Accounts: 200, Seed: 1},
		LoadTPS:  8000, Duration: 3 * time.Second, Warmup: time.Second, Drain: 3 * time.Second,
		Params: core.Params{BatchSize: 256, BatchTimeout: 20 * time.Millisecond, EpochLen: 32, ViewTimeout: 2 * time.Second},
		Seed:   7,
	})
	t.Logf("%d early proposals; %d confirmed, mean %v, p50 %v", res.EarlyProposals, res.Confirmed, res.Latency.Mean, res.Latency.P50)
	if res.Unconfirmed != 0 {
		t.Fatalf("%d of %d submissions unconfirmed", res.Unconfirmed, res.Submitted)
	}
	if res.EarlyProposals != 162 || res.Latency.Mean != 12111290*time.Nanosecond {
		t.Fatalf("%d early proposals, mean latency %v; want 162, 12.11129ms", res.EarlyProposals, res.Latency.Mean)
	}
}

// TestDrainedProposalNeverOnWAN25: on a run shaped like the benchmark's
// sim_wan25 (n = 25, 4-region WAN, NIC, 2000 tps, 100 ms pulse) no leader
// holds n transactions when its pipeline drains, so the rule never fires and
// the run is the pulse-driven one.
func TestDrainedProposalNeverOnWAN25(t *testing.T) {
	if testing.Short() {
		t.Skip("n = 25 message-level run")
	}
	res := Run(Config{
		N: 25, Protocol: core.OrthrusMode(), Net: WAN, NIC: true,
		Workload: workload.Config{Seed: 1},
		LoadTPS:  2000, Duration: 6 * time.Second, Warmup: time.Second, Drain: 3 * time.Second,
		Params: core.Params{BatchSize: 1024, BatchTimeout: 100 * time.Millisecond, EpochLen: 128},
		Seed:   7,
	})
	if res.Confirmed == 0 || res.EarlyProposals != 0 {
		t.Fatalf("%d confirmed, %d early proposals; want some, and none", res.Confirmed, res.EarlyProposals)
	}
}

// TestDrainedProposalRealConverges runs the rule on both real clusters: at
// 10 000 tps a leader's pipeline drains with more than n transactions
// queued, so it proposes at the delivery, and every submission still
// confirms on every replica and the replicas' ledgers agree.
func TestDrainedProposalRealConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock runs")
	}
	for name, run := range realRuns {
		t.Run(name, func(t *testing.T) {
			res := run(t, Config{
				N: 4, Protocol: core.OrthrusMode(), Net: LAN,
				LoadTPS: 10000, Duration: 1500 * time.Millisecond, Warmup: 500 * time.Millisecond, Drain: 10 * time.Second,
				Params:       core.Params{BatchTimeout: 20 * time.Millisecond},
				Workload:     workload.Config{Accounts: 256, Seed: 9},
				CaptureState: true,
			})
			t.Logf("%d early proposals; %d of %d confirmed in the window, mean %v", res.EarlyProposals, res.Confirmed, res.Submitted, res.Latency.Mean)
			if res.EarlyProposals == 0 {
				t.Fatal("no drained-pipeline proposal fired")
			}
			if res.Unconfirmed != 0 || !res.Converged {
				t.Fatalf("%d of %d submissions unconfirmed, converged %v", res.Unconfirmed, res.Submitted, res.Converged)
			}
		})
	}
}
