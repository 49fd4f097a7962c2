// Tracereplay: freeze a synthetic Ethereum-like workload into the CSV
// trace format, then replay the same trace through two different protocols
// — the paper's reset-and-replay methodology (Sec. VII-A) end to end,
// entirely through the public SDK.
//
//	go run ./examples/tracereplay
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"repro/orthrus"
)

func main() { run(os.Stdout) }

// run executes the example, writing its narrative to w.
func run(w io.Writer) {
	// 1. Generate and freeze a 2,000-transaction trace (46% payments,
	//    Zipf-skewed accounts — the paper's dataset in miniature).
	var frozen bytes.Buffer
	if err := orthrus.WriteSyntheticTrace(&frozen, 2000, 500, 2024); err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "frozen trace: %d transactions, %d bytes CSV\n\n",
		2000, frozen.Len())

	// 2. Replay the identical trace under Orthrus and ISS: same inputs,
	//    same genesis (every account reset to the same balance).
	replay := func(protocol string) *orthrus.Result {
		res, err := orthrus.Run(context.Background(),
			orthrus.WithProtocol(protocol),
			orthrus.WithReplicas(8),
			orthrus.WithNet(orthrus.WAN),
			orthrus.WithStragglers(1, 10),
			orthrus.WithTrace(bytes.NewReader(frozen.Bytes()), 1_000_000),
			orthrus.WithLoad(400),
			orthrus.WithDuration(5*time.Second),
			orthrus.WithDrain(30*time.Second),
			orthrus.WithBatching(256, 100*time.Millisecond),
			orthrus.WithSeed(7),
		)
		if err != nil {
			panic(err)
		}
		return res
	}

	// Every column reads the same replies: those that landed in the
	// measured window [warmup, duration].
	fmt.Fprintf(w, "%-10s %10s %10s %10s %9s\n", "protocol", "confirmed", "aborted", "mean lat", "p99")
	for _, protocol := range []string{"Orthrus", "ISS"} {
		res := replay(protocol)
		fmt.Fprintf(w, "%-10s %10d %10d %9.2fs %8.2fs\n",
			protocol, res.Confirmed, res.Aborted,
			res.Latency.Mean.Seconds(), res.Latency.P99.Seconds())
	}
	fmt.Fprintln(w, "\nSame trace, same genesis, one 10x straggler: Orthrus confirms")
	fmt.Fprintln(w, "payments from partial logs while ISS serializes everything through")
	fmt.Fprintln(w, "the straggler-gated global log.")
}
