package experiments

import (
	"strings"
	"testing"
)

// TestXValFigure pins the cross-validation figure end to end at the
// smallest scale: both backends produce one row per (protocol, n) cell
// in matching order, every cell measured progress, and the text
// rendering carries both tables.
func TestXValFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("X-val runs wall-clock cells; skipped under -short")
	}
	figs, err := Run([]string{XValID}, nil, 0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	fig := figs[0]
	if fig.Figure != XValID || fig.Title != Info(XValID).Title {
		t.Fatalf("Figure = %q (%q), want %q", fig.Figure, fig.Title, XValID)
	}
	if len(fig.Tables) != 2 {
		t.Fatalf("got %d tables, want 2 (sim-predicted, real-measured)", len(fig.Tables))
	}
	simRows, realRows := fig.Tables[0].Rows, fig.Tables[1].Rows
	want := 2 * len(scenarioProtocols()) // the panel at n = 4 and n = 10
	if len(simRows) != want || len(realRows) != want {
		t.Fatalf("rows: sim=%d real=%d, want %d each", len(simRows), len(realRows), want)
	}
	for i := range simRows {
		if simRows[i].Protocol != realRows[i].Protocol || simRows[i].N != realRows[i].N {
			t.Fatalf("row %d cells disagree: sim=%s/n=%d real=%s/n=%d",
				i, simRows[i].Protocol, simRows[i].N, realRows[i].Protocol, realRows[i].N)
		}
		if simRows[i].TputKTPS <= 0 {
			t.Errorf("sim cell %s/n=%d measured no throughput", simRows[i].Protocol, simRows[i].N)
		}
		if realRows[i].TputKTPS <= 0 {
			t.Errorf("real cell %s/n=%d measured no throughput", realRows[i].Protocol, realRows[i].N)
		}
		if realRows[i].LatencyS <= 0 {
			t.Errorf("real cell %s/n=%d measured no latency", realRows[i].Protocol, realRows[i].N)
		}
	}
	var sb strings.Builder
	fig.Render(&sb)
	out := sb.String()
	for _, marker := range []string{"sim-predicted", "real-measured", "Orthrus", "ISS", "Ladon"} {
		if !strings.Contains(out, marker) {
			t.Errorf("rendering lacks %q:\n%s", marker, out)
		}
	}
}

// TestXValExcludedFromSuite pins the design constraint that keeps the
// deterministic suite deterministic: X-val must never appear in
// FigureIDs (bench_test and the serial-vs-parallel suite tests replay those
// expecting byte-identical results, which wall-clock cells cannot give).
func TestXValExcludedFromSuite(t *testing.T) {
	for _, id := range FigureIDs() {
		if id == XValID {
			t.Fatalf("FigureIDs contains %q; the wall-clock figure must stay out of the deterministic suite", XValID)
		}
	}
	if _, err := Run([]string{XValID}, nil, 1, -1); err == nil {
		t.Fatal("X-val accepted an out-of-range scale")
	}
}
