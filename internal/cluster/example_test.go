package cluster_test

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// ExampleRun drives a minimal 4-replica Orthrus cluster over a simulated
// LAN. Every run is a seeded, self-contained simulation, so the outcome is
// exactly reproducible.
func ExampleRun() {
	res := cluster.Run(cluster.Config{
		N:        4,
		Protocol: core.OrthrusMode(),
		Net:      cluster.LAN,
		Workload: workload.Config{Accounts: 200, Seed: 7},
		LoadTPS:  400,
		Duration: 2 * time.Second,
		Warmup:   400 * time.Millisecond,
		Drain:    4 * time.Second,
		Params:   core.Params{BatchSize: 64},
		NIC:      true,
		Seed:     7,
	})
	fmt.Println("protocol:", res.Protocol)
	fmt.Println("confirmed some transactions:", res.Confirmed > 0)
	fmt.Println("nothing aborted:", res.Aborted == 0)
	// Output:
	// protocol: Orthrus
	// confirmed some transactions: true
	// nothing aborted: true
}

// ExampleConfig_Label shows the stable run key the parallel runner uses:
// it names the measured cell, including the scenario axis.
func ExampleConfig_Label() {
	scn := scenario.New("flash-crowd").LoadSurgeAt(3*time.Second, 2).Build()
	cfg := cluster.Config{N: 16, Protocol: core.OrthrusMode(), Net: cluster.WAN,
		Stragglers: 1, Scenario: scn}
	fmt.Println(cfg.Label())
	// Output:
	// Orthrus/WAN/n=16/straggler=1/scn=flash-crowd
}
