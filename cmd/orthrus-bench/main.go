// Command orthrus-bench regenerates the paper's evaluation figures
// (Sec. VII) through the public orthrus SDK. Each figure prints the same
// series the paper plots, and -json additionally writes the structured
// results as a machine-checkable artifact.
//
// Usage:
//
//	orthrus-bench -list                             # protocols, figures, scenarios
//	orthrus-bench -fig all -scale 0.25              # quick pass over every figure
//	orthrus-bench -fig 3,4 -scale 1                 # full Fig. 3+4 sweeps (slow)
//	orthrus-bench -fig 6                            # latency breakdown only
//	orthrus-bench -fig S1 -scenario crash-recover   # one dynamic-fault scenario
//	orthrus-bench -parallel 1                       # force a serial run
//	orthrus-bench -json BENCH_results.json          # write the JSON artifact
//	orthrus-bench -bench -q                         # simulator perf grid -> BENCH_scale.json
//	orthrus-bench -bench-net -q                     # transport perf grid -> BENCH_net.json
//	orthrus-bench -bench -compare BENCH_scale.json  # measure, print deltas, exit 2 outside tolerance
//
// Scale in (0,1] shrinks run durations, loads and the replica-count axis
// proportionally; 1 is the paper-sized configuration. Runs fan out across
// all cores by default (-parallel 0); results are identical to a serial
// run, only faster.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/orthrus"
	"repro/orthrus/scenariodsl"
)

// artifact is the document -json writes: schema identifier, the scale the
// suite ran at, and one FigureResult per requested figure. It contains no
// timing metadata, so serial and parallel runs write identical bytes.
type artifact struct {
	Schema  string                 `json:"schema"`
	Scale   float64                `json:"scale"`
	Figures []orthrus.FigureResult `json:"figures"`
}

// selectFigures expands a -fig value into a deduplicated id list: "all"
// (alone or inside a comma-separated list) selects every figure, repeated
// ids run once, and order of first mention is preserved. Unknown ids are
// caught later by orthrus.RunFigures, which takes the whole list — X-val
// and F-soak included — and returns the figures in that order.
func selectFigures(fig string) ([]string, error) {
	seen := map[string]bool{}
	var ids []string
	for _, id := range strings.Split(fig, ",") {
		id = strings.TrimSpace(id)
		if id == "" || seen[id] {
			continue
		}
		if id == "all" {
			for _, all := range orthrus.FigureIDs() {
				if !seen[all] {
					seen[all] = true
					ids = append(ids, all)
				}
			}
			continue
		}
		seen[id] = true
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("-fig selects no figures (want %s, or all)", strings.Join(orthrus.FigureIDs(), ", "))
	}
	return ids, nil
}

// printList enumerates everything the registry-driven toolchain knows:
// registered protocols, reproducible figures, preset scenarios and
// Byzantine attack presets.
func printList(w io.Writer) {
	fmt.Fprintln(w, "protocols (-protocol names are case-sensitive):")
	for _, p := range orthrus.Protocols() {
		fmt.Fprintf(w, "  %-8s %s\n", p.Name(), p.Description())
	}
	fmt.Fprintln(w, "\nfigures (-fig):")
	for _, f := range orthrus.Figures() {
		fmt.Fprintf(w, "  %-3s %s\n", f.ID, f.Title)
	}
	xv := orthrus.XValInfo()
	fmt.Fprintf(w, "  %-3s %s (wall-clock; excluded from \"all\")\n", xv.ID, xv.Title)
	sk := orthrus.SoakInfo()
	fmt.Fprintf(w, "  %-3s %s (long-horizon; excluded from \"all\")\n", sk.ID, sk.Title)
	fmt.Fprintln(w, "\nscenarios (-scenario, figure S1 only):")
	for _, name := range orthrus.ScenarioPresets() {
		fmt.Fprintf(w, "  %-19s %s\n", name, scenariodsl.Describe(name))
	}
	fmt.Fprintln(w, "\nattack presets (figure S2):")
	for _, name := range orthrus.AttackPresets() {
		fmt.Fprintf(w, "  %-19s %s\n", name, scenariodsl.Describe(name))
	}
}

// errAlreadyReported marks failures the FlagSet has already printed to
// stderr, so main exits nonzero without repeating them.
var errAlreadyReported = errors.New("orthrus-bench: flag parsing failed")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errAlreadyReported) {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(2)
	}
}

// runBench measures one perf grid ("scale" or "net") through the SDK and
// writes its artifact to jsonPath (default BENCH_<grid>.json). The
// baseline is read before measuring, so -compare may name the very file
// the run overwrites; a gate failure still writes the fresh artifact
// before it is reported.
func runBench(stdout, stderr io.Writer, grid, jsonPath, comparePath string, quiet bool) error {
	if jsonPath == "" {
		jsonPath = "BENCH_" + grid + ".json"
	}
	var baseline []byte
	if comparePath != "" {
		var err error
		if baseline, err = os.ReadFile(comparePath); err != nil {
			return fmt.Errorf("orthrus-bench: -compare: %w", err)
		}
	}
	if quiet {
		stdout = io.Discard
	}
	data, gateErr := orthrus.RunBench(grid, stdout, baseline)
	if data == nil {
		return gateErr
	}
	if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", jsonPath)
	return gateErr
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("orthrus-bench", flag.ContinueOnError)
	fig := fs.String("fig", "all", "comma-separated figures to regenerate: "+strings.Join(orthrus.FigureIDs(), ", ")+", "+orthrus.XValID+", "+orthrus.SoakID+", or all (which excludes the wall-clock "+orthrus.XValID+" and long-horizon "+orthrus.SoakID+")")
	scn := fs.String("scenario", "", "comma-separated S1 scenarios to run: "+strings.Join(orthrus.ScenarioPresets(), ", ")+" (default all; only affects fig S1)")
	scale := fs.Float64("scale", 0.25, "experiment scale in (0,1]; 1 = paper-sized")
	parallel := fs.Int("parallel", 0, "worker pool size: 0 = all cores, 1 = serial")
	jsonPath := fs.String("json", "", "write structured results to this path (e.g. BENCH_results.json; -bench and -bench-net default to BENCH_scale.json and BENCH_net.json)")
	quiet := fs.Bool("q", false, "suppress the text rendering (useful with -json)")
	list := fs.Bool("list", false, "list registered protocols, figures and scenario presets, then exit")
	bench := fs.Bool("bench", false, "measure the simulator perf grid instead of figures and write its artifact (BENCH_scale.json)")
	benchNet := fs.Bool("bench-net", false, "measure the real-transport perf grid instead of figures and write its artifact (BENCH_net.json)")
	compare := fs.String("compare", "", "with -bench or -bench-net: gate the fresh measurement against this artifact of the same grid — print the per-column delta table and fail when a column leaves its tolerance or a baseline cell is missing")
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errAlreadyReported
	}

	if *list {
		printList(stdout)
		return nil
	}

	if *bench || *benchNet {
		// The perf grids are fixed: figure-mode flags would be silently
		// ignored, so an explicit one is a usage error rather than a
		// surprise artifact.
		grid, mode := "scale", "-bench"
		if *benchNet {
			grid, mode = "net", "-bench-net"
		}
		var conflicts []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "fig", "scenario", "parallel", "scale":
				conflicts = append(conflicts, "-"+f.Name)
			}
		})
		if len(conflicts) > 0 {
			return fmt.Errorf("orthrus-bench: %s only apply to figure runs; drop with %s", strings.Join(conflicts, ", "), mode)
		}
		if *bench && *benchNet {
			return fmt.Errorf("orthrus-bench: -bench and -bench-net are separate grids with separate artifacts; run them one at a time")
		}
		return runBench(stdout, stderr, grid, *jsonPath, *compare, *quiet)
	}
	if *compare != "" {
		return fmt.Errorf("orthrus-bench: -compare requires -bench or -bench-net (it gates a perf artifact)")
	}

	// The artifact records an explicit -scale verbatim, so it must be the
	// scale the figures ran at: the flag refuses 0, which RunFigures would
	// read as 1 (and the comparison is written so that NaN fails too).
	if !(*scale > 0 && *scale <= 1) {
		return fmt.Errorf("-scale must be in (0,1], got %v", *scale)
	}

	ids, err := selectFigures(*fig)
	if err != nil {
		return err
	}
	var scenarios []string
	seenScn := map[string]bool{}
	for _, name := range strings.Split(*scn, ",") {
		if name = strings.TrimSpace(name); name != "" && !seenScn[name] {
			seenScn[name] = true
			scenarios = append(scenarios, name)
		}
	}

	start := time.Now()
	results, err := orthrus.RunFigures(context.Background(), ids,
		orthrus.FigureOptions{Scenarios: scenarios, Workers: *parallel, Scale: *scale})
	if err != nil {
		return err
	}
	if !*quiet {
		for _, f := range results {
			f.Render(stdout)
		}
	}
	fmt.Fprintf(stderr, "ran %d figure(s) in %.1fs\n", len(results), time.Since(start).Seconds())

	if *jsonPath != "" {
		doc := artifact{Schema: "orthrus-bench/v2", Scale: *scale, Figures: results}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", *jsonPath)
	}
	return nil
}
