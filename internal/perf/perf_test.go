package perf

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// art builds a synthetic artifact from (id, metrics) pairs.
func art(cells ...Cell) *Artifact { return &Artifact{Schema: Schema, Cells: cells} }

func cell(id string, kv ...any) Cell {
	m := map[string]float64{}
	for i := 0; i < len(kv); i += 2 {
		m[kv[i].(string)] = kv[i+1].(float64)
	}
	return Cell{ID: id, Metrics: m}
}

// TestGate drives the comparator over synthetic artifacts: every
// tolerance in the column table from both sides, a lost column, a missing
// cell, and the id distinction between same-size cells of different tiers.
func TestGate(t *testing.T) {
	base := art(
		cell("Orthrus/n=25/base", "ns_per_op", 1000.0, "allocs_per_op", 1000.0, "sim_events_per_sec", 1000.0, "sim_events", 5.0),
		cell("Orthrus/n=25/soak", "ns_per_op", 4000.0, "allocs_per_op", 4000.0, "sim_events_per_sec", 4000.0, "peak_live_set", 1000.0),
		cell("proc/n=4", "allocs_per_msg", 10.0, "msgs_per_sec", 1000.0, "p99_latency_ns", 100.0),
	)
	// vary returns a copy of base with one column of one cell replaced
	// (or, for a negative value, removed).
	vary := func(id, col string, v float64) *Artifact {
		out := art()
		for _, c := range base.Cells {
			m := map[string]float64{}
			for k, x := range c.Metrics {
				m[k] = x
			}
			if c.ID == id {
				if m[col] = v; v < 0 {
					delete(m, col)
				}
			}
			out.Cells = append(out.Cells, Cell{ID: c.ID, Metrics: m})
		}
		return out
	}
	cases := []struct {
		name  string
		fresh *Artifact
		want  string // substring of the one violation; "" = the gate passes
	}{
		{"identical", base, ""},
		{"allocs +9%", vary("Orthrus/n=25/base", "allocs_per_op", 1090), ""},
		{"allocs +11%", vary("Orthrus/n=25/base", "allocs_per_op", 1110), "Orthrus/n=25/base: allocs_per_op"},
		{"allocs halve", vary("Orthrus/n=25/base", "allocs_per_op", 500), ""},
		{"ns +14%", vary("Orthrus/n=25/base", "ns_per_op", 1140), ""},
		{"ns +16%", vary("Orthrus/n=25/base", "ns_per_op", 1160), "Orthrus/n=25/base: ns_per_op"},
		{"rate -14%", vary("Orthrus/n=25/base", "sim_events_per_sec", 860), ""},
		{"rate -16%", vary("Orthrus/n=25/base", "sim_events_per_sec", 840), "Orthrus/n=25/base: sim_events_per_sec"},
		{"rate doubles", vary("Orthrus/n=25/base", "sim_events_per_sec", 2000), ""},
		{"context column moves", vary("Orthrus/n=25/base", "sim_events", 50), ""},
		// The soak cell's values would fail as the base cell's and vice
		// versa: the two n = 25 cells are matched by full id.
		{"soak allocs +11%", vary("Orthrus/n=25/soak", "allocs_per_op", 4440), "Orthrus/n=25/soak: allocs_per_op"},
		{"soak rate -14%", vary("Orthrus/n=25/soak", "sim_events_per_sec", 3440), ""},
		{"soak rate -16%", vary("Orthrus/n=25/soak", "sim_events_per_sec", 3360), "Orthrus/n=25/soak: sim_events_per_sec"},
		{"peak column lost", vary("Orthrus/n=25/soak", "peak_live_set", -1), "lost its peak_live_set column"},
		{"soak peak +24%", vary("Orthrus/n=25/soak", "peak_live_set", 1240), ""},
		{"soak peak +26%", vary("Orthrus/n=25/soak", "peak_live_set", 1260), "Orthrus/n=25/soak: peak_live_set"},
		{"allocs/msg +11%", vary("proc/n=4", "allocs_per_msg", 11.1), "proc/n=4: allocs_per_msg"},
		{"msgs/s -16%", vary("proc/n=4", "msgs_per_sec", 840), "proc/n=4: msgs_per_sec"},
		{"latency is context", vary("proc/n=4", "p99_latency_ns", 1000), ""},
		{"baseline cell missing", art(base.Cells[0], base.Cells[2]), "Orthrus/n=25/soak: baseline cell missing"},
		{"new cell", art(append([]Cell{cell("ISS/n=4/base", "allocs_per_op", 1.0)}, base.Cells...)...), ""},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := Compare(&out, base, c.fresh)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: gate failed: %v", c.name, err)
		case c.want == "":
		case err == nil || !strings.Contains(err.Error(), "1 violation(s)") || !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: err = %v, want one violation containing %q", c.name, err, c.want)
		case !strings.Contains(out.String(), "FAIL"):
			t.Errorf("%s: delta table does not mark the failure:\n%s", c.name, out.String())
		}
	}
	var out bytes.Buffer
	_ = Compare(&out, base, art(append([]Cell{cell("ISS/n=4/base")}, base.Cells[1:]...)...)) // the table is what is checked
	for _, want := range []string{"(new cell, no baseline)", "(baseline cell missing from this run)", "Orthrus/n=25/soak", "+0.0%", "-15%"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("delta table lacks %q:\n%s", want, out.String())
		}
	}
}

// TestGridIDs: ids are unique within each grid, and the coverage the gate
// owes (the eleven base cells, the three n >= 250 cells, the soak cell) is
// in the grid, where a regenerated baseline makes it a missing-cell failure.
func TestGridIDs(t *testing.T) {
	seen := map[string]bool{}
	tiers := map[string]int{}
	for _, c := range SimGrid() {
		if seen[c.ID] {
			t.Fatalf("duplicate sim cell id %s", c.ID)
		}
		seen[c.ID] = true
		tiers[c.Tier]++
		if !strings.HasSuffix(c.ID, "/"+c.Tier) || c.Cfg.N == 0 || c.Cfg.Protocol.Name == "" {
			t.Fatalf("malformed cell %+v", c)
		}
	}
	if tiers[TierBase] != 11 || tiers[TierFScale] != 3 || tiers[TierSoak] != 1 || len(tiers) != 3 {
		t.Fatalf("tier sizes %v", tiers)
	}
	if !seen["Orthrus/n=25/base"] || !seen["Orthrus/n=25/soak"] {
		t.Fatal("the base and soak n = 25 cells must both exist under distinct ids")
	}
	for _, c := range NetGrid() {
		if seen[c.ID] {
			t.Fatalf("duplicate net cell id %s", c.ID)
		}
		seen[c.ID] = true
	}
	if !seen["proc/n=4"] || !seen["tcp/n=10"] {
		t.Fatalf("net grid ids: %v", NetGrid())
	}
	if _, err := measurers("nope"); err == nil {
		t.Fatal("unknown grid accepted")
	}
}

// TestRun drives the shared measure -> artifact -> render -> compare path
// with stub measurers: the document round-trips through parse, compares
// clean against itself, fails against a copy with one allocs column
// raised 11%, and rejects a bad baseline before measuring anything.
func TestRun(t *testing.T) {
	calls := 0
	stub := func(id string, allocs float64) func() (Cell, error) {
		return func() (Cell, error) {
			calls++
			return cell(id, "ns_per_op", 2e6, "allocs_per_op", allocs, "sim_events_per_sec", 5e4), nil
		}
	}
	cells := []func() (Cell, error){stub("A/n=4/base", 100), stub("A/n=10/base", 200)}
	var out bytes.Buffer
	data, err := run("scale", cells, &out, nil)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := parse(data)
	if err != nil || len(doc.Cells) != 2 || doc.Cells[1].Metrics["allocs_per_op"] != 200 {
		t.Fatalf("artifact did not round-trip: %v %+v", err, doc)
	}
	for _, want := range []string{"cell", "ms/op", "allocs/op", "peak-live", "A/n=10/base", " 200 "} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("cell table lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "msgs/s") || strings.Contains(out.String(), "delta") {
		t.Fatalf("scale table shows net columns or a delta without a baseline:\n%s", out.String())
	}

	out.Reset()
	if _, err := run("scale", cells, &out, data); err != nil {
		t.Fatalf("artifact fails the gate against itself: %v", err)
	}
	if !strings.Contains(out.String(), "delta vs baseline") {
		t.Fatalf("no delta table:\n%s", out.String())
	}
	doc.Cells[0].Metrics["allocs_per_op"] = 100 / 1.11 // the fresh 100 is now +11%
	worse, _ := json.Marshal(doc)
	fresh, err := run("scale", cells, &out, worse)
	if err == nil || !strings.Contains(err.Error(), "A/n=4/base: allocs_per_op") || fresh == nil {
		t.Fatalf("+11%% allocs: err = %v, artifact returned = %v", err, fresh != nil)
	}

	calls = 0
	for _, bad := range []string{`{"schema":"orthrus-bench-perf/v2","cells":[]}`, `not json`} {
		if _, err := run("scale", cells, &out, []byte(bad)); err == nil {
			t.Fatalf("baseline %q accepted", bad)
		}
	}
	if calls != 0 {
		t.Fatalf("a rejected baseline still measured %d cells", calls)
	}
	boom := errors.New("boom")
	data, err = run("scale", append(cells, func() (Cell, error) { return Cell{}, boom }), &out, nil)
	if !errors.Is(err, boom) || data != nil {
		t.Fatalf("failing cell: err = %v, artifact returned = %v", err, data != nil)
	}
}

// TestAllocsReproduce is the decidability regression: the same cell
// measured twice in one process — the first time with cold pools, the
// second right after its own run filled them — must report the same
// allocs_per_op. Without the pool reset in run the two differ by about 4%
// on this cell (and by up to a fifth on the n = 25 cells), which is what
// used to fail the +10% gate on unchanged code. A handful of runtime
// allocations still ride on GC timing, hence 1% rather than equality;
// sim_events is exact.
func TestAllocsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 10-replica cell twice")
	}
	var small SimCell
	for _, c := range SimGrid() {
		if c.ID == "Orthrus/n=10/base" {
			small = c
		}
	}
	one := func() (Cell, error) { return measureSim(small) }
	data, err := run("scale", []func() (Cell, error){one, one}, new(bytes.Buffer), nil)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := parse(data)
	if err != nil {
		t.Fatal(err)
	}
	a, b := doc.Cells[0].Metrics, doc.Cells[1].Metrics
	if a["sim_events"] == 0 || a["sim_events"] != b["sim_events"] {
		t.Fatalf("sim_events %v vs %v", a["sim_events"], b["sim_events"])
	}
	if d := a["allocs_per_op"]/b["allocs_per_op"] - 1; d > 0.01 || d < -0.01 {
		t.Fatalf("allocs_per_op does not reproduce: %v then %v (%+.1f%%)", a["allocs_per_op"], b["allocs_per_op"], d*100)
	}
}
