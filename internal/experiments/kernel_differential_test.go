package experiments

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// figureShapes enumerates the message-level cell configurations of the
// F-scale, S1 and S2 figures — the exact cluster.Config values the figure
// grids submit, not hand-rolled approximations — with the NIC model
// switched off so the parallel kernel accepts them. The analytic F-scale
// cells are excluded: the parallel kernel rejects the analytic SB by
// design, so there is nothing to differentiate.
func figureShapes(scale float64, short bool) map[string]cluster.Config {
	shapes := map[string]cluster.Config{}
	for _, n := range []int{4, 10} {
		shapes["F-scale/n="+itoa(n)] = scaleJob(core.OrthrusMode(), n, scale)
	}
	s1, s2 := scenario.Names(), scenario.AttackNames()
	if short {
		s1, s2 = s1[:1], s2[:1]
	}
	for _, name := range s1 {
		shapes["S1/"+name] = scenarioJob(name, core.OrthrusMode(), scale)
	}
	for _, name := range s2 {
		shapes["S2/"+name] = attackJob(name, core.OrthrusMode(), scale)
	}
	for key, cfg := range shapes {
		cfg.NIC = false
		shapes[key] = cfg
	}
	return shapes
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// TestKernelFigureShapesSerialMatchesParallel is the experiments-level
// half of the kernel differential suite: every message-level figure shape
// (the F-scale small-n cells, the four S1 fault/load scenarios, the four
// S2 Byzantine attacks) must produce a byte-identical artifact row under
// the serial and the parallel kernel. The cluster-level suite pins the
// Result struct; this one pins the figures themselves — the JSON rows the
// paper artifacts are built from — across the exact configs the figure
// grids submit.
func TestKernelFigureShapesSerialMatchesParallel(t *testing.T) {
	scale := 0.15
	if testing.Short() {
		scale = 0.05
	}
	for key, cfg := range figureShapes(scale, testing.Short()) {
		key, cfg := key, cfg
		t.Run(key, func(t *testing.T) {
			serial := cluster.Run(cfg)
			pcfg := cfg
			pcfg.Kernel = cluster.KernelParallel
			pcfg.Workers = 2
			parallel := cluster.Run(pcfg)
			if parallel.Kernel != "parallel" || parallel.Shards < 2 {
				t.Fatalf("parallel run did not shard: kernel=%q shards=%d", parallel.Kernel, parallel.Shards)
			}
			parallel.Kernel, parallel.Shards = serial.Kernel, serial.Shards
			if !reflect.DeepEqual(serial, parallel) {
				sj, _ := json.MarshalIndent(serial, "", "  ")
				pj, _ := json.MarshalIndent(parallel, "", "  ")
				t.Fatalf("kernels diverged on %s:\n--- serial\n%s\n--- parallel\n%s", key, sj, pj)
			}
			// The artifact rows derive from the Result; equal Results must
			// serialize to byte-identical JSON, the form the figure files
			// commit.
			sj, err := json.Marshal(serial)
			if err != nil {
				t.Fatal(err)
			}
			pj, err := json.Marshal(parallel)
			if err != nil {
				t.Fatal(err)
			}
			if string(sj) != string(pj) {
				t.Fatalf("artifact bytes diverged on %s", key)
			}
		})
	}
}

// TestKernelFigureGridParallelWorkers reruns the F-scale figure through
// the experiments runner with the grid's own worker pool while each cell
// itself runs the parallel kernel config above — guarding against the
// two layers of parallelism (job-level workers, event-level shards)
// interfering with determinism.
func TestKernelFigureGridParallelWorkers(t *testing.T) {
	scale := 0.15
	if testing.Short() {
		scale = 0.05
	}
	shapes := figureShapes(scale, true)
	jobs := make([]cluster.Config, 0, len(shapes))
	keys := make([]string, 0, len(shapes))
	for key, cfg := range shapes {
		pcfg := cfg
		pcfg.Kernel = cluster.KernelParallel
		pcfg.Workers = 2
		jobs = append(jobs, pcfg)
		keys = append(keys, key)
	}
	base := runner.Run(jobs, 1, cluster.Run)
	again := runner.Run(jobs, 4, cluster.Run)
	for i := range base {
		a, b := *base[i], *again[i]
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("grid workers changed a parallel-kernel cell result (%s)", keys[i])
		}
	}
}
