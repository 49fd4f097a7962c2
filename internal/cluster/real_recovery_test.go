package cluster

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/types"
	"repro/internal/workload"
)

// TestRealCrashRecoverCatchUp drives the crash -> recover -> state-transfer
// path over both real clusters: the StateTransferReq/Resp and checkpoint
// certificate messages cross a real wire codec (on TCP, real sockets too)
// and land on real event-loop goroutines, not the shared simulator. A
// victim replica stops mid-run, misses several epochs of deliveries,
// recovers, and must repair its log through the catch-up protocol — never
// delivering a slot twice — until it too has confirmed every submission,
// which is where the harness ends the run, with every ledger equal.
func TestRealCrashRecoverCatchUp(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock runs")
	}
	// The outage must stay inside the block-replay repair envelope: peers
	// log one epoch (EpochLen x BatchTimeout = 400 ms) of blocks below the
	// stable floor, so 300 ms down plus millisecond-scale real round
	// trips is always repairable. Payments flow through it: 50 tps from
	// 50 ms to 2.4 s. What the victim loses while down comes back within
	// the run: a proposal of its own left in flight through a view change
	// (ViewTimeout), the submissions it missed through a censorship
	// complaint (CensorshipBlocks).
	const victim = 2
	scn := scenario.New("crash-recover").
		CrashAt(400*time.Millisecond, victim).
		RecoverAt(700*time.Millisecond, victim).
		Build()
	for name, run := range realRuns {
		t.Run(name, func(t *testing.T) {
			type slot struct {
				instance int
				sn       uint64
			}
			delivered := map[slot]types.BlockID{}
			counts := make([]map[slot]int, 4)
			for i := range counts {
				counts[i] = map[slot]int{}
			}
			disagree := 0
			res := run(t, Config{
				N: 4, Protocol: core.OrthrusMode(), Net: LAN, Scenario: scn,
				Workload: workload.Config{Accounts: 64, PaymentFraction: 1, Seed: 11},
				LoadTPS:  50, Duration: 2400 * time.Millisecond, Warmup: 100 * time.Millisecond, Drain: 30 * time.Second,
				Params:       core.Params{EpochLen: 4, ViewTimeout: time.Second, CensorshipBlocks: 10},
				CaptureState: true,
				OnBlockDeliver: func(replica, instance int, b *types.Block) {
					k := slot{instance, b.SN}
					counts[replica][k]++
					if d, ok := delivered[k]; !ok {
						delivered[k] = b.Digest()
					} else if d != b.Digest() {
						disagree++
					}
				},
			})
			if res.Submitted == 0 || res.Unconfirmed != 0 {
				t.Fatalf("%d of %d submissions unconfirmed", res.Unconfirmed, res.Submitted)
			}
			if res.StateTransferApplied == 0 {
				t.Fatal("the victim repaired its gap without the catch-up protocol")
			}
			if disagree > 0 {
				t.Fatalf("%d deliveries disagree with the block another replica delivered in that slot", disagree)
			}
			for i, c := range counts {
				for k, v := range c {
					if v > 1 {
						t.Fatalf("replica %d delivered instance %d seq %d %d times: pre-checkpoint replay",
							i, k.instance, k.sn, v)
					}
				}
			}
			if !res.Converged {
				t.Fatal("ledgers diverged")
			}
		})
	}
}
