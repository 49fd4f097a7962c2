package experiments

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/workload"
)

// tinyGrid is a miniature protocol-vs-size sweep: small enough to run
// under -race in -short CI, real enough to exercise full cluster runs.
func tinyGrid() []cluster.Config {
	var jobs []cluster.Config
	for _, n := range []int{4, 7} {
		for _, mode := range []core.Mode{core.OrthrusMode(), baseline.ISSMode(), baseline.LadonMode()} {
			jobs = append(jobs, cluster.Config{
				N:        n,
				Protocol: mode,
				Net:      cluster.LAN,
				Workload: workload.Config{Accounts: 500, Seed: 42},
				LoadTPS:  500,
				Duration: 1500 * time.Millisecond,
				Warmup:   300 * time.Millisecond,
				Drain:    3 * time.Second,
				Params:   core.Params{BatchSize: 64},
				NIC:      true,
				Seed:     42,
			})
		}
	}
	return jobs
}

// TestParallelMatchesSerial is the determinism regression test: the same
// job grid run serially and through the full worker pool must produce
// identical Row values and byte-identical rendered text. Run with -race to
// prove the pool introduces no data races.
func TestParallelMatchesSerial(t *testing.T) {
	jobs := tinyGrid()
	serial := runner.Run(jobs, 1, cluster.Run)
	parallel := runner.Run(jobs, 8, cluster.Run)

	serialRows := sweepRows(serial, 0)
	parallelRows := sweepRows(parallel, 0)
	if !reflect.DeepEqual(serialRows, parallelRows) {
		t.Fatalf("rows diverged:\nserial   %+v\nparallel %+v", serialRows, parallelRows)
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Events != p.Events || s.Confirmed != p.Confirmed || s.Aborted != p.Aborted {
			t.Fatalf("job %d diverged: serial %v parallel %v", i, s, p)
		}
	}

	var serialText, parallelText bytes.Buffer
	printRows(&serialText, "tiny grid", serialRows)
	printRows(&parallelText, "tiny grid", parallelRows)
	if serialText.String() != parallelText.String() {
		t.Fatalf("rendered text diverged:\n%s\nvs\n%s", serialText.String(), parallelText.String())
	}
}

// TestFigureParallelMatchesSerial asserts determinism at the figure level:
// the full FigureResult (breakdowns included) and its rendering are
// independent of the worker count.
func TestFigureParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Fig. 6 configuration twice")
	}
	ids := []string{"6"}
	serial, err := Run(ids, nil, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(ids, nil, 4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("FigureResult diverged:\nserial   %+v\nparallel %+v", serial, parallel)
	}
	// Breakdown smoke on the figure's two jobs: a total and all five stages.
	for _, b := range serial[0].Breakdowns {
		if b.Total <= 0 || len(b.Stages) != 5 {
			t.Fatalf("empty or partial breakdown: %+v", b)
		}
	}
	var serialText, parallelText bytes.Buffer
	for _, f := range serial {
		f.Render(&serialText)
	}
	for _, f := range parallel {
		f.Render(&parallelText)
	}
	if serialText.String() != parallelText.String() {
		t.Fatalf("rendered text diverged:\n%s\nvs\n%s", serialText.String(), parallelText.String())
	}
}
