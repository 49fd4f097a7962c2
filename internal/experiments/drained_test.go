package experiments

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
)

// TestDrainedKeepsCrashRecoverViewChanges runs the S1 crash-recover cell of
// Orthrus at scale 0.05, whose replicas see a leader crash and recover on
// the simulated WAN. A new leader that proposed early right after its
// NewView could overtake the NewView on the reordering link, and
// pbft.Engine drops a proposal for a view it has not installed: the cell
// then read 4 view changes and 1.063 ktps. With the first-block-of-the-view
// guard the pulse makes each view's first proposal, and the cell keeps its
// 3 view changes and its throughput.
func TestDrainedKeepsCrashRecoverViewChanges(t *testing.T) {
	res := cluster.Run(scenarioJob("crash-recover", core.OrthrusMode(), 0.05))
	t.Logf("%d early proposals, %d view changes, %v ktps, mean %v", res.EarlyProposals, res.ViewChanges, res.ThroughputTPS/1000, res.Latency.Mean)
	if res.ViewChanges != 3 || res.ThroughputTPS/1000 != 1.1609375 {
		t.Fatalf("%d view changes, %v ktps; want 3, 1.1609375", res.ViewChanges, res.ThroughputTPS/1000)
	}
}

// TestDrainedLeavesLockstepOrdersOnThePulse runs the Fig. 4a ISS cell at
// LAN n = 8 (scale 0.05). Its predetermined order takes blocks round-robin
// by sequence number, so an instance that proposed ahead of its pulse only
// queued at the epoch barrier: with the epoch slack the cell fell to
// 3.256 ktps and a 0.402 s mean, and level with the slowest instance but
// not excluded it read 0.07 s. Excluded, no early proposal fires and the
// cell equals its pulse-only row.
func TestDrainedLeavesLockstepOrdersOnThePulse(t *testing.T) {
	res := cluster.Run(baseConfig(baseline.ISSMode(), 8, cluster.LAN, 0.05))
	t.Logf("%d early proposals, %v ktps, mean %v", res.EarlyProposals, res.ThroughputTPS/1000, res.Latency.Mean)
	if res.EarlyProposals != 0 || res.ThroughputTPS/1000 != 4.444375 || res.Latency.Mean.Seconds() != 0.054541334 {
		t.Fatalf("%d early proposals, %v ktps, mean %v; want 0, 4.444375, 54.541334ms",
			res.EarlyProposals, res.ThroughputTPS/1000, res.Latency.Mean)
	}
}
