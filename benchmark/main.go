// Command benchmark is the end-to-end Orthrus benchmark: confirmed
// transactions per second, due-time confirmation latency and CPU per
// transaction on real (TransportProc) and simulated (WAN) clusters, with a
// per-layer budget from a separate traced run. See README.md.
//
//	benchmark --workload proc4_mixed --seed 1 --seconds 10 --trace 0
//	benchmark --seed 1                    # every workload, untraced then traced
//	benchmark -compare a.jsonl b.jsonl    # two run sets against BENCHMARK.json's bounds
//
// The last line of a run's output is its result as one JSON object. Each
// repetition of a run executes in a child process of its own (the same
// binary, started with -rep), which the parent waits for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/benchmark/e2e"
	"repro/benchmark/gen"
	"repro/benchmark/layers"
	"repro/benchmark/report"
)

func main() {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed the workload's transactions are drawn from")
	seconds := flag.Int("seconds", 10, "seconds one run measures")
	trace := flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics; default: one run of each")
	out := flag.String("out", "", "run-set file to append each run's record to")
	compare := flag.Bool("compare", false, "compare two run-set files against BENCHMARK.json's bounds")
	rep := flag.String("rep", "", "run the one repetition this JSON describes and print its statistics (set by the benchmark itself)")
	flag.Parse()

	if *rep != "" {
		os.Exit(child(*rep))
	}
	if *compare {
		os.Exit(compareSets(flag.Args()))
	}
	if flag.NArg() > 0 || *seconds < 1 || *trace < -1 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	var workloads []e2e.Workload
	if *workload == "all" {
		workloads = e2e.Workloads
	} else if w, ok := e2e.Lookup(*workload); ok {
		workloads = []e2e.Workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		os.Exit(2)
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	runner := e2e.Subprocess(exe)
	fmt.Println(e2e.Host())
	failed := false
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if *trace >= 0 && traced != (*trace == 1) {
				continue
			}
			rep, err := run(runner, w, *seed, *seconds, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
			if err := emit(rep, *out); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
			failed = failed || len(rep.Problems) > 0
		}
	}
	if failed {
		os.Exit(1)
	}
}

// outDir is where a traced run leaves its profile and spans: the
// benchmark's out directory, from the repository root or from benchmark/.
func outDir() (string, error) {
	dir := "out"
	if _, err := os.Stat("benchmark/go.mod"); err == nil {
		dir = "benchmark/out"
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// child runs one repetition and prints its statistics as JSON.
func child(arg string) int {
	var spec e2e.RepSpec
	err := json.Unmarshal([]byte(arg), &spec)
	var stats *e2e.RepStats
	if err == nil {
		stats, err = e2e.RunRep(spec)
	}
	var out []byte
	if err == nil {
		out, err = json.Marshal(stats)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func run(runner e2e.Runner, w e2e.Workload, seed int64, seconds int, traced bool) (*e2e.Report, error) {
	if !traced {
		return e2e.Run(runner, w, seed, seconds)
	}
	dir, err := outDir()
	if err != nil {
		return nil, err
	}
	tr := layers.NewTracer()
	id := tr.Begin("e2e.RunTraced", 0, -1)
	rep, err := e2e.RunTraced(runner, w, seed, seconds, dir)
	tr.End(id)
	if err != nil {
		return nil, err
	}
	// The probes push the head of the workload's own stream through each layer.
	specs := gen.Stream(seed, layers.MaxBlocks*layers.BlockSize, w.Payments)
	probes, err := layers.Probe(specs, w.Replicas, seed, tr)
	if err != nil {
		return nil, err
	}
	rep.Metrics = append(rep.Metrics, probes...)
	return rep, tr.WriteFile(filepath.Join(dir, "trace-"+w.Name+".json"), w.Name, seed)
}

// emit prints a run's metrics by name with their units, then the result
// line, and appends the run to the run-set file if there is one.
func emit(rep *e2e.Report, out string) error {
	mode := "tracing off"
	if rep.Traced {
		mode = "traced"
	}
	fmt.Printf("\n%s  seed %d  %d s  %s\n", rep.Workload, rep.Seed, rep.Seconds, mode)
	for _, m := range rep.Metrics {
		fmt.Printf("  %-32s %16.4f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, n := range rep.Notes {
		fmt.Println("  note:", n)
	}
	for _, p := range rep.Problems {
		fmt.Println("  FAILED CHECK:", p)
	}
	res, err := report.NewResult(len(rep.Problems) == 0, rep.Attempted, rep.Failed, rep.Metrics)
	if err != nil {
		return err
	}
	if out != "" {
		rec := report.Record{Workload: rep.Workload, Seed: rep.Seed, Seconds: rep.Seconds, Traced: rep.Traced, Result: res}
		if err := report.Append(out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func compareSets(files []string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.jsonl b.jsonl")
		return 2
	}
	spec, err := report.LoadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var sets [2][]report.Record
	for i, f := range files {
		if sets[i], err = report.ReadRecords(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	breaches, unresolved := report.Compare(os.Stdout, spec, sets[0], sets[1])
	fmt.Printf("%d breaches, %d unresolved\n", breaches, unresolved)
	if breaches > 0 {
		return 1
	}
	return 0
}
