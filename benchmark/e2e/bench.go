package e2e

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/benchmark/report"
)

// Runner runs one repetition. The benchmark command runs each in a child
// process of its own (Subprocess); tests call RunRep directly.
type Runner func(RepSpec) (*RepStats, error)

// Report is the outcome of one benchmark run of one workload.
type Report struct {
	Workload  string
	Seed      int64
	Seconds   int
	Traced    bool
	Attempted int
	Failed    int
	Metrics   []report.Metric
	// Problems lists the output checks that failed; the run is correct
	// only when it is empty.
	Problems []string
	// Notes are remarks for the reader: spreads, sample counts, flags.
	Notes []string
}

func (r *Report) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, report.Metric{Name: name, Value: v, Unit: unit})
}

func (r *Report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// count adds the repetitions' submissions, failures and failed checks.
func (r *Report) count(w Workload, reps []*RepStats) {
	for i, rep := range reps {
		r.Attempted += rep.Submitted
		r.Failed += rep.Failed()
		for _, p := range rep.Problems {
			r.Problems = append(r.Problems, fmt.Sprintf("repetition %d: %s", i+1, p))
		}
	}
	if w.Sim {
		// Virtual time under one seeded scheduler repeats exactly.
		key := func(rep *RepStats) string {
			return fmt.Sprintf("confirmed=%d p50=%v p99=%v events=%d", rep.InWindow, rep.P50, rep.P99, rep.SimEvents)
		}
		for _, rep := range reps[1:] {
			if key(rep) != key(reps[0]) {
				r.Problems = append(r.Problems, fmt.Sprintf("simulated repetitions differ: %s vs %s", key(reps[0]), key(rep)))
				break
			}
		}
	}
	if len(r.Problems) > 0 {
		r.Failed = r.Attempted
	}
}

func pick(reps []*RepStats, of func(*RepStats) float64) []float64 {
	vs := make([]float64, len(reps))
	for i, r := range reps {
		vs[i] = of(r)
	}
	return vs
}

// repeat runs repetitions of a workload: a wall-clock workload exactly
// reps of them, a simulated one until seconds of wall time have passed
// (at least SimMinReps). profile names the i-th repetition's CPU profile
// file, or is nil for an unprofiled run.
func repeat(run Runner, w Workload, seed int64, seconds, reps int, profile func(i int) string) ([]*RepStats, error) {
	spec := RepSpec{Workload: w, Seed: seed, Window: w.window(seconds, reps)}
	var out []*RepStats
	for start := time.Now(); ; {
		if profile != nil {
			spec.Profile = profile(len(out))
		}
		r, err := run(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		if w.Sim {
			if len(out) >= SimMinReps && time.Since(start) >= time.Duration(seconds)*time.Second {
				return out, nil
			}
		} else if len(out) == reps {
			return out, nil
		}
	}
}

// Run measures the end-to-end metrics of one workload with tracing off.
// A wall-clock workload splits seconds between ProcReps fresh clusters; a
// simulated one repeats its fixed virtual window until seconds of wall
// time have passed, and its repetitions must agree exactly. Each metric
// is the centre (see centre) of its values across repetitions, set-up time
// their median.
func Run(run Runner, w Workload, seed int64, seconds int) (*Report, error) {
	reps, err := repeat(run, w, seed, seconds, ProcReps, nil)
	if err != nil {
		return nil, err
	}
	out := &Report{Workload: w.Name, Seed: seed, Seconds: seconds}
	out.count(w, reps)

	out.add("setup_s", median(pick(reps, func(r *RepStats) float64 { return r.SetupS })), "s")
	for _, m := range []struct {
		name, unit string
		of         func(*RepStats) float64
	}{
		{"goodput_tps", "1/s", func(r *RepStats) float64 { return r.GoodputTPS }},
		{"confirm_mean_ms", "ms", func(r *RepStats) float64 { return r.Mean }},
		{"confirm_p50_ms", "ms", func(r *RepStats) float64 { return r.P50 }},
		{"cpu_us_per_tx", "us", (*RepStats).CPUPerTx},
		{"run_wall_s", "s", func(r *RepStats) float64 { return r.WallS }},
	} {
		vs := pick(reps, m.of)
		out.add(m.name, centre(vs), m.unit)
		out.note("%s per repetition: %.4g", m.name, vs)
	}
	out.note("confirm_p99_ms %.4g (reported, not gated: see README); latency sample: %d transactions per repetition, %d beyond p99",
		centre(pick(reps, func(r *RepStats) float64 { return r.P99 })), reps[0].Sample, reps[0].Sample/100)
	if w.Sim {
		out.note("latency is virtual time under the 4-region WAN model; wall and CPU time are this host's")
	} else {
		out.note("no message delay is injected on Proc: latency is processor, queueing and batching time only")
		if late := centre(pick(reps, func(r *RepStats) float64 { return r.GenLate99 })); late > 1 {
			out.note("noisy: the generator ran %.2f ms late at p99", late)
		}
	}
	return out, nil
}

// Host describes the machine a run measured, printed with every result.
func Host() string {
	load := "unknown"
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		load = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s %s/%s loadavg=%q; each repetition runs in a process of its own on one CPU",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, load)
}
