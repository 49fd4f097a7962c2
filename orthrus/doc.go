// Package orthrus is the public SDK over the Orthrus Multi-BFT simulation
// system (ICDE 2025): build a simulated cluster of any registered
// protocol, drive a workload at it, inject stragglers, faults and dynamic
// scenarios, and stream or collect the measurements the paper plots — all
// without touching the internal packages.
//
// The canonical quickstart — run Orthrus and a baseline on a simulated
// WAN with one straggler, and compare client latency:
//
//	ctx := context.Background()
//	for _, protocol := range []string{"Orthrus", "ISS"} {
//		res, err := orthrus.Run(ctx,
//			orthrus.WithProtocol(protocol),
//			orthrus.WithReplicas(8),
//			orthrus.WithNet(orthrus.WAN),
//			orthrus.WithStragglers(1, 10),
//			orthrus.WithLoad(2000),
//			orthrus.WithDuration(8*time.Second),
//		)
//		if err != nil {
//			log.Fatal(err)
//		}
//		fmt.Printf("%-8s mean latency %.2fs\n", protocol, res.Latency.Mean.Seconds())
//	}
//
// # Configuration
//
// A run is described by a Config, built from defaults plus functional
// options (WithProtocol, WithNet, WithLoad, WithScenario, WithStragglers,
// WithFaults, WithBatching, ...); later options override earlier ones.
// Config.Validate reports every problem as a typed error — match
// ErrInvalidConfig with errors.Is, extract *ValidationError with
// errors.As — and Run never panics on bad input. Every simulation is
// seeded and self-contained: the same Config reproduces the same Result
// exactly, and RunMany fans independent configurations across all cores
// with results identical to a serial sweep.
//
// # Protocols
//
// Protocols are resolved by name through a shared registry: Orthrus plus
// four of the paper's baselines (ISS, Mir, DQBFT, Ladon; RCC would be ISS
// field for field) are always present, Protocols lists them, and Register
// adds a protocol that Run, the CLIs and their listings resolve by name
// without touching the engine layers. Each figure names its own panel.
// Registry errors are typed: ErrUnknownProtocol, ErrDuplicateProtocol.
//
// # Workloads
//
// The default workload is the synthetic Ethereum-like stream (WithLoad,
// WithAccounts, WithPayments). Alternatives: WithTrace replays a frozen
// CSV trace (WriteSyntheticTrace produces one), and WithTransactions
// scripts an explicit transaction list built with Payment, MultiPayment
// and ContractCall — combine with WithGenesis and WithFinalState to
// inspect final balances (Result.Balance, Result.SharedValue,
// Result.Converged).
//
// # Observation
//
// Result-struct access covers whole-run measurements; an Observer
// (WithObserver) streams them while the simulation executes —
// per-transaction confirmations, per-0.5 s metric windows, and
// per-scenario-phase windows the moment each closes. Dynamic fault/load
// timelines are built with the sibling package scenariodsl and attached
// with WithScenario.
//
// # Figures
//
// RunFigures reproduces the paper's evaluation figures end to end (the
// machinery behind cmd/orthrus-bench), returning structured FigureResult
// values whose JSON form is the orthrus-bench/v2 artifact schema.
package orthrus
