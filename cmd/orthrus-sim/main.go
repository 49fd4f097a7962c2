// Command orthrus-sim runs a single Multi-BFT cluster configuration
// through the public orthrus SDK and prints a summary: throughput, client
// latency distribution, abort count and view changes. Useful for exploring
// one scenario without the full benchmark harness.
//
// Examples:
//
//	orthrus-sim -protocol Orthrus -n 16 -net wan -stragglers 1
//	orthrus-sim -protocol ISS -n 8 -net lan -load 20000 -duration 10s
//	orthrus-sim -protocol Orthrus -n 16 -faults 5 -fault-at 9s
//	orthrus-sim -protocol Orthrus -n 10 -scenario partition-heal
//	orthrus-sim -protocol Orthrus -n 7 -scenario-file chaos.scn
//
// A -scenario-file holds the scenario DSL parsed by scenariodsl.Parse:
// one "<time> <kind> <operands>" event per line, e.g. "3s crash 5 6".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/orthrus"
	"repro/orthrus/scenariodsl"
)

// errAlreadyReported marks failures the FlagSet has already printed, so
// main exits nonzero without repeating them.
var errAlreadyReported = errors.New("orthrus-sim: flag parsing failed")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errAlreadyReported) {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(2)
	}
}

func run(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("orthrus-sim", flag.ContinueOnError)
	protocol := fs.String("protocol", "Orthrus", "protocol: "+strings.Join(orthrus.ProtocolNames(), ", "))
	n := fs.Int("n", 16, "number of replicas (m = n instances); a fault-free run from 32 up simulates the analytic SB, any other run message-level PBFT")
	netName := fs.String("net", "wan", "network profile: wan or lan")
	stragglers := fs.Int("stragglers", 0, "number of 10x-slow instances")
	faults := fs.Int("faults", 0, "replicas to crash at -fault-at (detectable faults)")
	faultAt := fs.Duration("fault-at", 9*time.Second, "crash injection time")
	byzantine := fs.Int("byzantine", 0, "undetectable (selective-participation) faulty replicas")
	scn := fs.String("scenario", "", "preset fault/load or attack scenario: "+strings.Join(append(scenariodsl.Presets(), scenariodsl.AttackPresets()...), ", ")+" (simulated on message-level PBFT at every -n)")
	scnFile := fs.String("scenario-file", "", "path to a scenario-DSL file (see scenariodsl.Parse; exclusive with -scenario)")
	load := fs.Float64("load", 10000, "client load in tx/s")
	duration := fs.Duration("duration", 15*time.Second, "submission window")
	payments := fs.Float64("payments", 0.46, "payment transaction fraction (0 uses the paper default; negative means all-contract)")
	batch := fs.Int("batch", 0, "batch size in txs per block (0 = engine default)")
	nic := fs.Bool("nic", true, "model the 1 Gbps per-node NIC egress queue, the analytic SB's proposals (fault-free runs from -n 32 up) included (false: no bandwidth charge)")
	seed := fs.Int64("seed", 42, "simulation seed")
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errAlreadyReported
	}

	// Pre-check what only the flags can get wrong; unknown protocols and
	// combinations of valid flags are the SDK's to reject (Config.Validate
	// names the field and lists the registered protocols).
	if *scn != "" && *scnFile != "" {
		return fmt.Errorf("-scenario and -scenario-file are mutually exclusive")
	}
	net, ok := map[string]orthrus.Net{"wan": orthrus.WAN, "lan": orthrus.LAN}[*netName]
	if !ok {
		return fmt.Errorf("unknown network %q (want wan or lan)", *netName)
	}
	opts := []orthrus.Option{
		orthrus.WithProtocol(*protocol),
		orthrus.WithReplicas(*n),
		orthrus.WithNet(net),
		orthrus.WithStragglers(*stragglers, 0),
		orthrus.WithFaults(*faults, *faultAt),
		orthrus.WithByzantine(*byzantine),
		orthrus.WithLoad(*load),
		orthrus.WithDuration(*duration),
		orthrus.WithBatching(*batch, 0),
		orthrus.WithSeed(*seed),
	}
	// The flag keeps its historical semantics: 0 means "paper default"
	// (the SDK's unset state) and a negative value means an explicit
	// all-contract workload (the SDK's WithPayments(0)).
	switch {
	case *payments < 0:
		opts = append(opts, orthrus.WithPayments(0))
	case *payments != 0:
		opts = append(opts, orthrus.WithPayments(*payments))
	}
	opts = append(opts, orthrus.WithNIC(*nic))
	scnLabel := *scn
	if *scn != "" {
		s, err := scenariodsl.Preset(*scn, *n, *duration, *seed)
		if err != nil {
			return err
		}
		opts = append(opts, orthrus.WithScenario(s))
	}
	if *scnFile != "" {
		src, err := os.ReadFile(*scnFile)
		if err != nil {
			return err
		}
		s, err := scenariodsl.Parse(strings.TrimSuffix(filepath.Base(*scnFile), filepath.Ext(*scnFile)), string(src))
		if err != nil {
			return err
		}
		scnLabel = s.Name
		opts = append(opts, orthrus.WithScenario(s))
	}
	cfg := orthrus.NewConfig(opts...)
	if err := cfg.Validate(); err != nil {
		return err
	}
	if note := messageLevelNote(*n, *faults, *byzantine, scnLabel, *duration); note != "" {
		fmt.Fprintln(stderr, note)
	}
	res, err := cfg.Run(context.Background())
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "protocol     %s\n", res.Protocol)
	fmt.Fprintf(w, "network      %s, n=%d (m=n instances), f=%d\n", res.Net, res.Replicas, (res.Replicas-1)/3)
	fmt.Fprintf(w, "submitted    %d txs @ %.0f tps\n", res.Submitted, *load)
	fmt.Fprintf(w, "confirmed    %d in window (throughput %.1f ktps)\n", res.Confirmed, res.ThroughputTPS/1000)
	fmt.Fprintf(w, "aborted      %d\n", res.Aborted)
	fmt.Fprintf(w, "latency      %s\n", res.Latency.String())
	fmt.Fprintf(w, "view changes %d\n", res.ViewChanges)
	fmt.Fprintf(w, "sim events   %d\n", res.SimEvents)
	if len(res.Phases) > 0 {
		fmt.Fprintf(w, "phases       (%s scenario windows)\n", scnLabel)
		for _, p := range res.Phases {
			fmt.Fprintf(w, "  %-20s [%5.1fs,%6.1fs)  %8.1f tps  lat=%5.2fs\n",
				p.Label, p.Start.Seconds(), p.End.Seconds(), p.ThroughputTPS, p.MeanLatency.Seconds())
		}
	}
	fmt.Fprintln(w, "breakdown    (observer replica stage means)")
	for _, s := range res.Breakdown {
		fmt.Fprintf(w, "  %-16s %8.3fs\n", s.Stage, s.Mean.Seconds())
	}
	return nil
}

// The SDK simulates a fault-free run from analyticFrom replicas up on the
// closed-form SB, and every other run on message-level PBFT (the Replicas
// doc of orthrus.Config); this command leaves the pulse and the drain at
// the SDK's defaults.
const (
	analyticFrom = 32
	defaultPulse = 100 * time.Millisecond
	drainFactor  = 2 // the drain is twice the submission window
)

// messageLevelNote is the line printed before a run of n >= analyticFrom
// replicas that crash faults, Byzantine replicas or a scenario put on
// message-level PBFT, or "" for any other run: the run's estimated
// protocol messages, about 2n²·m votes per pulse (m = n) over every pulse
// of the window and the drain, and the wall time such runs were measured
// to take.
func messageLevelNote(n, faults, byzantine int, scenario string, duration time.Duration) string {
	var why string
	switch {
	case n < analyticFrom:
		return ""
	case faults > 0:
		why = "crash faults"
	case byzantine > 0:
		why = "Byzantine replicas"
	case scenario != "":
		why = "scenario " + scenario
	default:
		return ""
	}
	pulses := int64((1 + drainFactor) * duration / defaultPulse)
	msgs := 2 * int64(n) * int64(n) * int64(n) * pulses
	return fmt.Sprintf("orthrus-sim: n=%d with %s simulates message-level PBFT, not the analytic SB: "+
		"about %.1f million protocol messages (2n²·m votes per pulse x %d pulses); "+
		"3 s at 500 tps took 2.2 / 10.9 / 35.5 s of wall time at n = 32 / 48 / 64 on 2 vCPUs",
		n, why, float64(msgs)/1e6, pulses)
}
