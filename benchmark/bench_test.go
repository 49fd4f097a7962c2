package main

import (
	"regexp"
	"testing"
	"time"

	"repro/benchmark/e2e"
	"repro/benchmark/gen"
	"repro/benchmark/layers"
	"repro/benchmark/report"
)

// The end-to-end driver and the probes materialise the same stream through
// different constructors; the join from a confirmation back to its due
// time, and the claim that probes time "that workload's transactions",
// both rest on the two agreeing.
func TestBothMaterialisationsYieldTheSameIDs(t *testing.T) {
	ids := func(seed int64) []string {
		var out []string
		for _, s := range gen.Stream(seed, 3000, e2e.PaperMix) {
			sdk, internal := e2e.Materialise(s).ID(), layers.Materialise(s).ID().String()
			if sdk != internal {
				t.Fatalf("seed %d nonce %d: SDK builds %s, types builds %s", seed, s.Nonce, sdk, internal)
			}
			out = append(out, sdk)
		}
		return out
	}
	a, b, c := ids(11), ids(11), ids(12)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, transaction %d: %s then %s", i, a[i], b[i])
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds built the same transactions")
	}
}

func TestContractMatchesWorkloads(t *testing.T) {
	spec, err := report.LoadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(e2e.Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the driver runs %d", len(spec.Workloads), len(e2e.Workloads))
	}
	for i, w := range e2e.Workloads {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the driver %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]report.MetricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or used twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// Every workload, at a one-second window, emits each metric BENCHMARK.json
// names exactly once (NewResult refuses a repeat), untraced and traced,
// and passes its own output checks.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	spec, err := report.LoadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range e2e.Workloads {
		if testing.Short() && w.Name != "sim_wan10_crash" {
			continue // the one sub-second cluster; it also covers the traced path
		}
		if w.Sim && w.CrashAt == 0 {
			w.Virtual = 6 * time.Second
		}
		for _, traced := range []bool{false, true} {
			rep, err := run(e2e.RunRep, w, 5, 1, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			for _, p := range rep.Problems {
				t.Errorf("%s traced=%v: %s", w.Name, traced, p)
			}
			res, err := report.NewResult(true, rep.Attempted, rep.Failed, rep.Metrics)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s not reported", w.Name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s: %s reported in %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
				}
				delete(res.Metrics, m.Name)
			}
			for extra := range res.Metrics {
				t.Errorf("%s traced=%v: reports %s, which BENCHMARK.json does not name", w.Name, traced, extra)
			}
		}
	}
}
