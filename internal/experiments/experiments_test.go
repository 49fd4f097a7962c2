package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/runner"
)

// The figure functions are exercised end to end by cmd/orthrus-bench and
// bench_test.go; these tests cover the scaffolding at minimal scale.

func TestReplicaCountsScale(t *testing.T) {
	if got := replicaCounts(1); len(got) != 5 || got[4] != 128 {
		t.Fatalf("full scale counts %v", got)
	}
	if got := replicaCounts(0.1); len(got) != 2 {
		t.Fatalf("tiny scale counts %v", got)
	}
	if got := replicaCounts(0.5); got[len(got)-1] != 64 {
		t.Fatalf("half scale counts %v", got)
	}
}

func TestLoadForShape(t *testing.T) {
	// Capacity declines with n and LAN doubles WAN.
	if loadFor(128, cluster.WAN, 1) >= loadFor(8, cluster.WAN, 1) {
		t.Fatal("load does not decline with n")
	}
	if loadFor(16, cluster.LAN, 1) != 2*loadFor(16, cluster.WAN, 1) {
		t.Fatal("LAN load not 2x WAN")
	}
	if loadFor(16, cluster.WAN, 0.5) != 0.5*loadFor(16, cluster.WAN, 1) {
		t.Fatal("scale not proportional")
	}
}

func TestClampScale(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{{0, 1}, {-1, 1}, {2, 1}, {0.3, 0.3}, {1, 1}} {
		if got := clampScale(c.in); got != c.want {
			t.Fatalf("clampScale(%v) = %v", c.in, got)
		}
	}
}

func TestBaseConfigRegimes(t *testing.T) {
	small := baseConfig(core.OrthrusMode(), 16, cluster.WAN, 1)
	if small.AnalyticSB || !small.NIC {
		t.Fatal("n=16 should be message-level with NIC")
	}
	big := baseConfig(core.OrthrusMode(), 64, cluster.WAN, 1)
	if !big.AnalyticSB || big.NIC {
		t.Fatal("n=64 should be analytic without NIC")
	}
}

func TestFig1bOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full miniature cluster")
	}
	res, err := Run([]string{"1b"}, runner.Options{}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res[0].Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "ISS") || !strings.Contains(out, "global%") {
		t.Fatalf("unexpected output: %s", out)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if _, err := Run([]string{"9"}, runner.Options{}, 0.1); err == nil {
		t.Fatal("expected an error for an unknown figure id")
	}
}

func TestFigureIDsMatchSpecs(t *testing.T) {
	specs := figureSpecs(0.1, ScenarioNames())
	ids := FigureIDs()
	if len(specs) != len(ids) {
		t.Fatalf("%d specs for %d ids", len(specs), len(ids))
	}
	for i, s := range specs {
		if s.id != ids[i] {
			t.Fatalf("spec %d has id %q, want %q", i, s.id, ids[i])
		}
		if len(s.jobs) == 0 {
			t.Fatalf("figure %q has no jobs", s.id)
		}
	}
}

func TestFigureResultJSONRoundTrip(t *testing.T) {
	in := FigureResult{
		Figure: "3",
		Title:  "demo",
		Tables: []Table{{Title: "t", Rows: []Row{{Protocol: "Orthrus", N: 8, TputKTPS: 1.5, LatencyS: 0.25, P99S: 0.5}}}},
		Breakdowns: []BreakdownResult{{Protocol: "ISS",
			Stages: map[string]time.Duration{"Send": time.Second}, Total: time.Second}},
		Series: []SeriesResult{{Faults: 1, TimeS: []float64{0, 0.5}, TputKTPS: []float64{1, 2},
			LatencyS: []float64{0.1, 0.2}, ViewChange: 1}},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out FigureResult
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\nin  %+v\nout %+v", in, out)
	}
}

func TestSuiteJobKeysUnique(t *testing.T) {
	specs := figureSpecs(1, ScenarioNames())
	jobs := suiteJobs(specs)
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.Key] {
			t.Fatalf("duplicate suite job key %q", j.Key)
		}
		seen[j.Key] = true
	}
	if len(seen) != len(jobs) {
		t.Fatalf("%d unique keys for %d jobs", len(seen), len(jobs))
	}
}

func TestRunRejectsDuplicateFigure(t *testing.T) {
	if _, err := Run([]string{"6", "6"}, runner.Options{}, 0.1); err == nil {
		t.Fatal("expected an error for a duplicate figure id")
	}
}
