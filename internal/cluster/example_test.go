package cluster_test

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
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
