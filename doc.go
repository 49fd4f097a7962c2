// Package repro is a from-scratch Go reproduction of "Orthrus: Accelerating
// Multi-BFT Consensus through Concurrent Partial Ordering of Transactions"
// (ICDE 2025).
//
// The supported surface is the public SDK in package orthrus (with
// scenario timelines in orthrus/scenariodsl). The canonical snippet:
//
//	res, err := orthrus.Run(ctx,
//		orthrus.WithProtocol("Orthrus"),     // or ISS, Mir, DQBFT, Ladon, orthrus.Register(...)
//		orthrus.WithReplicas(16),
//		orthrus.WithNet(orthrus.WAN),
//		orthrus.WithStragglers(1, 10),       // one 10x-slow instance
//		orthrus.WithLoad(5000),              // open-loop tx/s
//	)
//	if err != nil { ... }                        // typed validation errors, no panics
//	fmt.Printf("%.1f ktps, mean latency %.2fs\n",
//		res.ThroughputTPS/1000, res.Latency.Mean.Seconds())
//
// The implementation lives under internal/: a discrete-event network
// simulator (simnet), message-level PBFT (pbft) and an analytic
// quorum-time variant (sb) implementing sequenced broadcast, the
// object/escrow ledger (ledger), the bucket partitioner (partition),
// global-ordering algorithms (order), the Orthrus replica framework
// (core), the four baseline protocols (baseline) wired into a protocol
// registry (registry), the Ethereum-like workload generator (workload),
// the declarative fault/load timeline engine (scenario), and the
// experiment harness (cluster, experiments, metrics). Independent
// experiment runs fan out across cores through the worker pool in
// internal/runner; every simulation is seeded and self-contained, so
// parallel sweeps reproduce serial results exactly. ARCHITECTURE.md maps
// the packages, the data flow, the determinism contract, the public-API
// boundary, and the seams where new protocols and scenarios plug in.
//
// Entry points (all built on the public SDK):
//
//   - examples/quickstart — scripted 4-replica cluster with final-state
//     checks (the SDK walkthrough)
//   - examples/chaos — composite crash-recover + straggler scenario
//   - cmd/orthrus-sim — run one configuration (-scenario applies a preset
//     fault timeline)
//   - cmd/orthrus-bench — regenerate every evaluation figure, in parallel,
//     with -json emitting a structured results artifact and -list
//     enumerating protocols, figures and scenarios (EXPERIMENTS.md)
//   - bench_test.go — testing.B benchmarks, one per table/figure
package repro
