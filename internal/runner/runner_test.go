package runner

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/workload"
)

// stub returns a Run function that records which goroutine-visible order
// jobs complete in while tagging each result with its job's N, so tests
// can verify results land at their job's index no matter what the pool
// does.
func stub(calls *atomic.Int64) func(cluster.Config) *cluster.Result {
	return func(cfg cluster.Config) *cluster.Result {
		calls.Add(1)
		// Busy the fast jobs less than the slow ones so completion order
		// scrambles relative to submission order.
		if cfg.N%2 == 0 {
			time.Sleep(time.Duration(cfg.N) * 100 * time.Microsecond)
		}
		return &cluster.Result{N: cfg.N, Protocol: fmt.Sprintf("job-%d", cfg.N)}
	}
}

func makeJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Key: fmt.Sprintf("j%d", i), Config: cluster.Config{N: i}}
	}
	return jobs
}

func TestRunOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 0} {
		var calls atomic.Int64
		jobs := makeJobs(37)
		out := Run(jobs, Options{Workers: workers, Run: stub(&calls)})
		if got := int(calls.Load()); got != len(jobs) {
			t.Fatalf("workers=%d: %d calls for %d jobs", workers, got, len(jobs))
		}
		if len(out) != len(jobs) {
			t.Fatalf("workers=%d: %d results for %d jobs", workers, len(out), len(jobs))
		}
		for i, res := range out {
			if res == nil || res.N != i {
				t.Fatalf("workers=%d: result %d is %+v, want N=%d", workers, i, res, i)
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	if out := Run(nil, Options{}); len(out) != 0 {
		t.Fatalf("expected no results, got %d", len(out))
	}
}

func TestRunOnDone(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]string{}
	var calls atomic.Int64
	jobs := makeJobs(16)
	Run(jobs, Options{Workers: 4, Run: stub(&calls), OnDone: func(i int, job Job, res *cluster.Result) {
		mu.Lock()
		defer mu.Unlock()
		seen[i] = job.Key
	}})
	if len(seen) != len(jobs) {
		t.Fatalf("OnDone fired %d times, want %d", len(seen), len(jobs))
	}
	for i, j := range jobs {
		if seen[i] != j.Key {
			t.Fatalf("OnDone index %d saw key %q, want %q", i, seen[i], j.Key)
		}
	}
}

func TestNewJobKey(t *testing.T) {
	j := NewJob(cluster.Config{N: 8, Protocol: core.OrthrusMode(), Net: cluster.WAN, Stragglers: 1})
	if j.Key == "" {
		t.Fatal("empty job key")
	}
	if j.Key != j.Config.Label() {
		t.Fatalf("key %q != label %q", j.Key, j.Config.Label())
	}
}

// TestRunRealClusterDeterminism runs a tiny real configuration through the
// pool serially and in parallel and checks the measured numbers agree —
// the cheap end of the determinism spectrum (the figure-level version
// lives in internal/experiments).
func TestRunRealClusterDeterminism(t *testing.T) {
	mk := func(seed int64) cluster.Config {
		return cluster.Config{
			N:        4,
			Protocol: core.OrthrusMode(),
			Net:      cluster.LAN,
			Workload: workload.Config{Accounts: 500, Seed: seed},
			LoadTPS:  400,
			Duration: 2 * time.Second,
			Warmup:   500 * time.Millisecond,
			Drain:    4 * time.Second,
			Params:   core.Params{BatchSize: 64},
			NIC:      true,
			Seed:     seed,
		}
	}
	jobs := []Job{NewJob(mk(1)), NewJob(mk(2)), NewJob(mk(3)), NewJob(mk(4))}
	serial := Run(jobs, Options{Workers: 1})
	parallel := Run(jobs, Options{Workers: len(jobs)})
	for i := range jobs {
		s, p := serial[i], parallel[i]
		if s.Confirmed != p.Confirmed || s.ThroughputTPS != p.ThroughputTPS ||
			s.Latency.Mean() != p.Latency.Mean() || s.Events != p.Events {
			t.Fatalf("job %d diverged: serial %v parallel %v", i, s, p)
		}
	}
}
