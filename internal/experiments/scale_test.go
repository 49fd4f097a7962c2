package experiments

import (
	"encoding/json"
	"testing"

	"repro/internal/cluster"
	"repro/internal/runner"
)

// TestScaleSerialMatchesParallel is the F-scale determinism regression:
// the figure's JSON artifact must be byte-identical whether its job grid
// runs serially or through the full worker pool, and race-clean under
// -race (CI runs this in the -short -race job). Both modes run at scale
// 0.05, the cheapest load and window the figure has. -short runs the
// figure as that scale selects it — the n in {4, 10} message-level cells,
// through Run. The full run builds the figure's plan over {4, 25, 32}
// instead: the two regimes that scale's own axis stops short of — the
// n = 25 message-level cell and an analytic cell (n = 32 is the smallest)
// — next to a small one. Pulling them in through a larger scale (0.25 is
// the first whose axis has both) costs six times the wall clock for the
// same regimes under more load.
func TestScaleSerialMatchesParallel(t *testing.T) {
	const scale = 0.05
	pass := func(workers int) ([]FigureResult, error) {
		if testing.Short() {
			return Run([]string{"F-scale"}, nil, workers, scale)
		}
		p := fscalePlanOver([]int{4, 25, 32}, scale)
		figs := []FigureResult{{Figure: "F-scale", Title: Info("F-scale").Title}}
		p.assemble(&figs[0], runner.Run(p.sim, workers, cluster.Run), nil)
		return figs, nil
	}
	// The two passes overlap: they share nothing but the simulator pool,
	// which is the one thing that could leak state from run to run, so the
	// serial pass doubles as a witness that a neighbouring pool does not
	// disturb it (and on a multi-core host the test costs one pass, not two).
	var serial []FigureResult
	var serialErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		serial, serialErr = pass(1)
	}()
	parallel, err := pass(8)
	<-done
	if err != nil || serialErr != nil {
		t.Fatal(err, serialErr)
	}
	sj, err := json.MarshalIndent(serial, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.MarshalIndent(parallel, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(sj) != string(pj) {
		t.Fatalf("F-scale artifact diverged between serial and parallel runs:\n%s\nvs\n%s", sj, pj)
	}
	// Sanity on the artifact's content: every (protocol, n) cell reports
	// throughput and a positive messages-per-commit.
	if len(serial) != 1 || len(serial[0].Tables) != 3 {
		t.Fatalf("unexpected F-scale shape: %+v", serial)
	}
	for _, table := range serial[0].Tables {
		for _, row := range table.Rows {
			if row.TputKTPS <= 0 {
				t.Fatalf("cell %s/n=%d has zero throughput", row.Protocol, row.N)
			}
			if row.MsgsPerCommit <= 0 {
				t.Fatalf("cell %s/n=%d missing msgs/commit", row.Protocol, row.N)
			}
		}
	}
}
