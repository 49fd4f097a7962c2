package orthrus_test

import (
	"context"
	"fmt"
	"time"

	"repro/orthrus"
	"repro/orthrus/scenariodsl"
)

// Example runs the canonical SDK snippet: a 4-replica Orthrus cluster on a
// simulated LAN executing two scripted transactions, with final balances
// read back from the observer replica.
func Example() {
	res, err := orthrus.Run(context.Background(),
		orthrus.WithReplicas(4),
		orthrus.WithNet(orthrus.LAN),
		orthrus.WithLoad(1), // one scripted transaction per second
		orthrus.WithDuration(3*time.Second),
		orthrus.WithDrain(3*time.Second),
		orthrus.WithBatching(16, 20*time.Millisecond),
		orthrus.WithSeed(1),
		orthrus.WithGenesis(map[string]int64{"alice": 100, "bob": 50}),
		orthrus.WithTransactions(
			orthrus.Payment("alice", "bob", 30, 1),
			orthrus.ContractCall("bob", []string{"bob"}, 5, 2, orthrus.SharedAssign("counter", 7)),
		),
		orthrus.WithFinalState(),
	)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	confirmed := 0 // every reply, the drain's included: the series' sum
	for _, w := range res.Windows {
		confirmed += w.Confirmed
	}
	fmt.Printf("confirmed %d of %d transactions\n", confirmed, res.Submitted)
	fmt.Printf("alice=%d bob=%d counter=%d converged=%v\n",
		res.Balance("alice"), res.Balance("bob"), res.SharedValue("counter"), res.Converged)
	// Output:
	// confirmed 2 of 2 transactions
	// alice=70 bob=75 counter=7 converged=true
}

// ExampleProtocols lists the registered protocol panel (the first five are
// always the compiled-in ones; orthrus.Register appends after them).
func ExampleProtocols() {
	for _, p := range orthrus.Protocols()[:5] {
		fmt.Println(p.Name())
	}
	// Output:
	// Orthrus
	// ISS
	// Mir
	// DQBFT
	// Ladon
}

// ExampleConfig_Validate shows typed validation errors: nothing runs, the
// error wraps ErrInvalidConfig, and every problem is reported.
func ExampleConfig_Validate() {
	cfg := orthrus.NewConfig(
		orthrus.WithReplicas(4),
		orthrus.WithStragglers(9, 10),
	)
	fmt.Println(cfg.Validate())
	// Output:
	// orthrus: invalid configuration: orthrus: invalid Stragglers: 9 stragglers exceed 4 replicas
}

// ExampleWithScenario attaches a dynamic fault timeline and streams the
// per-phase windows as they close.
func ExampleWithScenario() {
	scn := scenariodsl.New("demo").
		CrashAt(800*time.Millisecond, 3).
		RecoverAt(1600*time.Millisecond, 3).
		Build()
	_, err := orthrus.Run(context.Background(),
		orthrus.WithReplicas(4),
		orthrus.WithNet(orthrus.LAN),
		orthrus.WithLoad(500),
		orthrus.WithDuration(2*time.Second),
		orthrus.WithDrain(2*time.Second),
		orthrus.WithBatching(64, 20*time.Millisecond),
		orthrus.WithScenario(scn),
		orthrus.WithObserver(orthrus.ObserverFuncs{
			Phase: func(p orthrus.Phase) { fmt.Println(p.Label) },
		}),
	)
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// baseline
	// crash
	// recover
}
