package orthrus

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestFiguresMatchFigureIDs(t *testing.T) {
	figs := Figures()
	ids := FigureIDs()
	if len(figs) != len(ids) {
		t.Fatalf("Figures() has %d entries, FigureIDs() %d", len(figs), len(ids))
	}
	for i, f := range figs {
		if f.ID != ids[i] {
			t.Fatalf("Figures()[%d].ID = %q, FigureIDs()[%d] = %q", i, f.ID, i, ids[i])
		}
		if f.Title == "" {
			t.Fatalf("figure %q has no title", f.ID)
		}
	}
}

func TestScenarioPresetsNonEmpty(t *testing.T) {
	if len(ScenarioPresets()) == 0 {
		t.Fatal("no scenario presets")
	}
}

func TestRunFiguresRejectsUnknown(t *testing.T) {
	if _, err := RunFigures(context.Background(), []string{"nope"}, FigureOptions{}); err == nil {
		t.Fatal("unknown figure id accepted")
	}
	if _, err := RunFigures(context.Background(), []string{"S1"}, FigureOptions{Scenarios: []string{"nope"}}); err == nil {
		t.Fatal("unknown scenario name accepted")
	}
}

// TestRunFiguresRejectsBadScale: every figure entry point reports a scale
// outside (0, 1] — NaN included — in the SDK's error shape, before running.
func TestRunFiguresRejectsBadScale(t *testing.T) {
	ctx := context.Background()
	for _, scale := range []float64{-0.5, 1.5, math.NaN()} {
		_, figsErr := RunFigures(ctx, []string{"1b"}, FigureOptions{Scale: scale})
		_, xvalErr := RunXVal(ctx, scale)
		_, soakErr := RunSoak(ctx, scale)
		for _, err := range []error{figsErr, xvalErr, soakErr} {
			var ve *ValidationError
			if !errors.Is(err, ErrInvalidConfig) || !errors.As(err, &ve) || ve.Field != "Scale" {
				t.Fatalf("scale %g: want ErrInvalidConfig with a Scale ValidationError, got %v", scale, err)
			}
		}
	}
}

func TestRunFiguresCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunFigures(ctx, []string{"1b"}, FigureOptions{}); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

// TestRunFiguresSerialMatchesParallel pins the acceptance property on the
// public path: serial and parallel figure artifacts are byte-identical.
func TestRunFiguresSerialMatchesParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs miniature clusters")
	}
	run := func(workers int) []byte {
		res, err := RunFigures(context.Background(), []string{"6"}, FigureOptions{Workers: workers, Scale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	serial, parallel := run(1), run(0)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("serial and parallel artifacts differ:\n%s\n%s", serial, parallel)
	}
}

// TestRunFiguresMixedOrder: a suite figure, the wall-clock X-val and another
// suite figure go through one RunFigures call, come back in request order,
// and the deterministic figures are byte-identical to a run without X-val
// between them. RunXVal is that same X-val: its sim-predicted table is
// deterministic and must be equal, its real-measured table is wall clock
// and only has to list the same cells.
func TestRunFiguresMixedOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("X-val runs wall-clock cells; skipped under -short")
	}
	ctx, o := context.Background(), FigureOptions{Scale: 0.05}
	mixed, err := RunFigures(ctx, []string{"6", XValID, "1b"}, o)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunFigures(ctx, []string{"6", "1b"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(mixed) != 3 || mixed[0].Figure != "6" || mixed[1].Figure != XValID || mixed[2].Figure != "1b" {
		t.Fatalf("results out of request order: %+v", mixed)
	}
	for i, j := range map[int]int{0: 0, 2: 1} {
		got, _ := json.Marshal(mixed[i])
		want, _ := json.Marshal(plain[j])
		if string(got) != string(want) {
			t.Fatalf("figure %s changed next to X-val:\n%s\nvs\n%s", plain[j].Figure, got, want)
		}
	}

	xval, err := RunXVal(ctx, o.Scale)
	if err != nil {
		t.Fatal(err)
	}
	if xval.Figure != XValID || xval.Title != XValInfo().Title || xval.Title != mixed[1].Title ||
		len(xval.Tables) != 2 || len(mixed[1].Tables) != 2 {
		t.Fatalf("X-val results malformed:\n%+v\nvs\n%+v", xval, mixed[1])
	}
	if !reflect.DeepEqual(xval.Tables[0], mixed[1].Tables[0]) {
		t.Fatalf("sim-predicted tables differ:\n%+v\nvs\n%+v", xval.Tables[0], mixed[1].Tables[0])
	}
	a, b := xval.Tables[1], mixed[1].Tables[1]
	if a.Title != b.Title || len(a.Rows) != len(b.Rows) || len(a.Rows) != len(xval.Tables[0].Rows) {
		t.Fatalf("real-measured tables differ in shape:\n%+v\nvs\n%+v", a, b)
	}
	for i := range a.Rows {
		if a.Rows[i].Protocol != b.Rows[i].Protocol || a.Rows[i].N != b.Rows[i].N {
			t.Fatalf("real-measured row %d names another cell: %+v vs %+v", i, a.Rows[i], b.Rows[i])
		}
	}
}

// TestRunSoakMatchesRunFigures: RunSoak is RunFigures with SoakID alone, and
// the cell is deterministic.
func TestRunSoakMatchesRunFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("minutes of virtual time")
	}
	ctx := context.Background()
	soak, err := RunSoak(ctx, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	figs, err := RunFigures(ctx, []string{SoakID}, FigureOptions{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if soak.Figure != SoakID || soak.Title != SoakInfo().Title || len(soak.Soak) != 1 || !reflect.DeepEqual(soak, figs[0]) {
		t.Fatalf("RunSoak differs from RunFigures:\n%+v\nvs\n%+v", soak, figs)
	}
}
