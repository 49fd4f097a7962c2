package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/registry"
	"repro/internal/scenario"
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

// TestScaleRule pins the one scale rule: 0 means 1, values in (0, 1] are
// kept, and everything else — NaN included — is an ErrInvalidConfig, never
// clamped. Run applies it before anything executes.
func TestScaleRule(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{{0, 1}, {0.3, 0.3}, {1, 1}, {1e-9, 1e-9}} {
		if got, err := Scale(c.in); err != nil || got != c.want {
			t.Fatalf("Scale(%v) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []float64{-1, 2, 1.0000001, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, err := Scale(bad); !errors.Is(err, errs.ErrInvalidConfig) || got != 0 {
			t.Fatalf("Scale(%v) = %v, %v; want 0 and ErrInvalidConfig", bad, got, err)
		}
		if _, err := Run([]string{"1b"}, nil, 1, bad); !errors.Is(err, errs.ErrInvalidConfig) {
			t.Fatalf("Run at scale %v: want ErrInvalidConfig, got %v", bad, err)
		}
	}
}

func TestBaseConfigRegimes(t *testing.T) {
	// cluster.Run picks the SB by size; the NIC model is on on both sides
	// of cluster.AnalyticFrom.
	for _, n := range []int{16, 64} {
		if !baseConfig(core.OrthrusMode(), n, cluster.WAN, 1).NIC {
			t.Fatalf("n=%d should run under the NIC model", n)
		}
	}
}

func TestFig1bOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full miniature cluster")
	}
	res, err := Run([]string{"1b"}, nil, 0, 0.05)
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
	if _, err := Run([]string{"9"}, nil, 0, 0.1); err == nil {
		t.Fatal("expected an error for an unknown figure id")
	}
}

// TestCatalogue pins the figure vocabulary, which has one list to read
// from: ids are unique, the suite is exactly the ten figures "all" has
// always selected, in render order, the two named-only figures keep their
// titles, and every entry plans at least one run and an assembler.
func TestCatalogue(t *testing.T) {
	want := []string{"1b", "3", "4", "5", "6", "7", "8", "S1", "S2", "F-scale"}
	if got := FigureIDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("FigureIDs() = %v, want %v", got, want)
	}
	if len(catalogue) != len(want)+2 {
		t.Fatalf("catalogue has %d entries, want the suite plus X-val and F-soak", len(catalogue))
	}
	for i, f := range Figures() {
		if f.ID != want[i] || f.Title == "" || f != Info(f.ID) {
			t.Fatalf("Figures()[%d] = %+v (Info: %+v)", i, f, Info(f.ID))
		}
	}
	for id, title := range map[string]string{
		XValID: "Fig X-val: sim-predicted vs real-measured throughput/latency (in-process transport, n=4,10)",
		SoakID: "Fig F-soak: long-horizon soak — live-set census under crash/recover churn (WAN)",
	} {
		if got := Info(id); got.ID != id || got.Title != title {
			t.Fatalf("Info(%q) = %+v", id, got)
		}
	}
	if got := Info("no-such"); got != (FigureInfo{}) {
		t.Fatalf("Info of an unknown id = %+v", got)
	}
	seen := map[string]bool{}
	for _, f := range catalogue {
		if seen[f.ID] {
			t.Fatalf("figure id %q listed twice", f.ID)
		}
		seen[f.ID] = true
		if f.suite == (f.ID == XValID || f.ID == SoakID) {
			t.Fatalf("figure %q: suite = %v", f.ID, f.suite)
		}
		p := f.plan(0.1, scenario.Names())
		if len(p.sim) == 0 || p.assemble == nil {
			t.Fatalf("figure %q plans %d simulated runs, assembler set: %v", f.ID, len(p.sim), p.assemble != nil)
		}
		if (len(p.real) > 0) != (f.ID == XValID) {
			t.Fatalf("figure %q plans %d real-transport runs", f.ID, len(p.real))
		}
	}
}

// TestSweepPanelIgnoresRegistry pins that Figs. 3–4 run the panel they
// name, whatever the registry holds: a registered protocol adds no run to
// any (n, stragglers) group, because a cell's position is its identity in
// the figure golden.
func TestSweepPanelIgnoresRegistry(t *testing.T) {
	fig3, _ := find("3")
	check := func(when string) {
		type group struct{ n, stragglers int }
		got := map[group][]string{}
		for _, cfg := range fig3.plan(0.05, nil).sim {
			g := group{cfg.N, cfg.Stragglers}
			got[g] = append(got[g], cfg.Protocol.Name)
		}
		want := []string{"Orthrus", "ISS", "DQBFT", "Ladon"}
		if len(got) != 2*len(replicaCounts(0.05)) {
			t.Fatalf("%s: Fig 3 plans %d (n, stragglers) groups", when, len(got))
		}
		for g, names := range got {
			if !reflect.DeepEqual(names, want) {
				t.Fatalf("%s: Fig 3 group %+v runs %v, want %v", when, g, names, want)
			}
		}
	}
	check("before registering")
	err := registry.Register(registry.Protocol{Name: "PanelProbe", New: core.OrthrusMode})
	if err != nil && !errors.Is(err, registry.ErrDuplicate) {
		t.Fatal(err)
	}
	check("after registering PanelProbe")
}

// TestISSStandsForMirInFigs3And4 pins the claim sweepPanelNote makes in
// every Figs. 3–4 table title: on a Fig. 3 cell without and with a
// straggler, Mir's run equals ISS's in every field but the protocol name.
// They differ only under a view change, which no such cell has
// (internal/core's TestMirStallsAllInstancesOnViewChange pins that
// difference).
func TestISSStandsForMirInFigs3And4(t *testing.T) {
	fig3, _ := find("3")
	cells := 0
	for _, cfg := range fig3.plan(0.05, nil).sim {
		if cfg.N != 8 || cfg.Protocol.Name != "ISS" {
			continue
		}
		cells++
		mirCfg := cfg
		mirCfg.Protocol = baseline.MirMode()
		iss, mir := cluster.Run(cfg), cluster.Run(mirCfg)
		if iss.ViewChanges != 0 || iss.Confirmed == 0 {
			t.Fatalf("stragglers=%d: ISS cell has %d view changes, %d confirmed", cfg.Stragglers, iss.ViewChanges, iss.Confirmed)
		}
		iss.Protocol, mir.Protocol = "", ""
		if !reflect.DeepEqual(iss, mir) {
			t.Fatalf("stragglers=%d: Mir differs from ISS:\nISS %+v\nMir %+v", cfg.Stragglers, iss, mir)
		}
	}
	if cells != 2 {
		t.Fatalf("compared %d Fig 3 cells at n=8, want 2", cells)
	}
}

func TestFigureResultJSONRoundTrip(t *testing.T) {
	in := FigureResult{
		Figure: "3",
		Title:  "demo",
		Tables: []Table{{Title: "t", Rows: []Row{{Protocol: "Orthrus", N: 8, TputKTPS: 1.5, LatencyS: 0.25, P99S: 0.5, Unconfirmed: 3}}}},
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

// TestRowWithoutReplies: a cell none of whose replies landed in its
// window has no latency, so its row carries the unconfirmed count and
// renders "-" where a latency would be, not a 0.00 beside a zero
// throughput; a row with replies renders its latencies as before.
func TestRowWithoutReplies(t *testing.T) {
	empty := toRow(&cluster.Result{Protocol: "ISS", N: 8, Submitted: 9, Unconfirmed: 5}, 1)
	if empty.LatencyS != 0 || empty.P99S != 0 || empty.Unconfirmed != 5 {
		t.Fatalf("row %+v: want zero latency and 5 unconfirmed", empty)
	}
	full := Row{Protocol: "Orthrus", N: 8, Stragglers: 1, TputKTPS: 1.4, LatencyS: 1.09, P99S: 2.52}
	var buf bytes.Buffer
	printRows(&buf, "t", []Row{empty, full})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if got := strings.Fields(lines[len(lines)-2]); !reflect.DeepEqual(got, []string{"ISS", "8", "1", "0.0", "-", "-"}) {
		t.Fatalf("empty row renders %q", got)
	}
	if got := strings.Fields(lines[len(lines)-1]); !reflect.DeepEqual(got, []string{"Orthrus", "8", "1", "1.4", "1.09", "2.52"}) {
		t.Fatalf("row renders %q", got)
	}
}

func TestRunRejectsDuplicateFigure(t *testing.T) {
	if _, err := Run([]string{"6", "6"}, nil, 0, 0.1); err == nil {
		t.Fatal("expected an error for a duplicate figure id")
	}
}
