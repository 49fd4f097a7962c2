package e2e

import (
	"fmt"
	"path/filepath"
	"time"
)

// RampRates are the offered loads, in tx/s, of the load curve. They
// bracket this host's knee for the n=4 Proc cluster; the curve is too
// step-quantised to gate on and is reported for orientation only.
var RampRates = []int{30000, 40000, 50000, 60000}

// rampWindow is the measured window of one load-curve step.
const rampWindow = 2 * time.Second

// RunTraced measures the per-layer metrics the end-to-end driver can see.
// Half of the repetitions run untraced, for the stage, client and runtime
// numbers; the other half run under the CPU profiler, for each layer's
// share of the samples. The profiles are written under dir. The difference
// in CPU per transaction between the halves is the tracing overhead.
func RunTraced(run Runner, w Workload, seed int64, seconds int, dir string) (*Report, error) {
	half := ProcReps / 2
	plain, err := repeat(run, w, seed, (seconds+1)/2, half, nil)
	if err != nil {
		return nil, err
	}
	var profiles []string
	traced, err := repeat(run, w, seed, (seconds+1)/2, half, func(i int) string {
		profiles = append(profiles, filepath.Join(dir, fmt.Sprintf("cpu-%s-%d.pprof", w.Name, i+1)))
		return profiles[i]
	})
	if err != nil {
		return nil, err
	}
	shares, samples, err := cpuShares(profiles)
	if err != nil {
		return nil, err
	}

	out := &Report{Workload: w.Name, Seed: seed, Seconds: seconds, Traced: true}
	out.count(w, append(append([]*RepStats(nil), plain...), traced...))

	avg := func(of func(*RepStats) float64) float64 { return centre(pick(plain, of)) }
	perTx := func(of func(*RepStats) float64) float64 {
		return avg(func(r *RepStats) float64 { return of(r) / float64(max(r.Confirmed, 1)) })
	}
	for i, name := range []string{"send", "preprocess", "partial", "global", "reply"} {
		out.add("stage."+name+"_ms", avg(func(r *RepStats) float64 { return r.StageMS[i] }), "ms")
	}
	out.add("client.gen_late_p50_ms", avg(func(r *RepStats) float64 { return r.GenLate50 }), "ms")
	out.add("client.gen_late_p99_ms", avg(func(r *RepStats) float64 { return r.GenLate99 }), "ms")
	out.add("client.confirm_p99_ms", avg(func(r *RepStats) float64 { return r.P99 }), "ms")
	out.add("client.confirm_p999_ms", avg(func(r *RepStats) float64 { return r.P999 }), "ms")
	out.add("client.unconfirmed", avg(func(r *RepStats) float64 { return float64(r.Submitted - r.Confirmed) }), "count")
	out.add("runtime.allocs_per_tx", perTx(func(r *RepStats) float64 { return float64(r.Mallocs) }), "count")
	out.add("runtime.alloc_bytes_per_tx", perTx(func(r *RepStats) float64 { return float64(r.AllocBytes) }), "B")
	out.add("runtime.gc_cycles", avg(func(r *RepStats) float64 { return float64(r.GCCycles) }), "count")
	out.add("runtime.gc_pause_max_ms", avg(func(r *RepStats) float64 { return r.GCPauseMaxMS }), "ms")
	out.add("runtime.heap_peak_mb", avg(func(r *RepStats) float64 { return float64(r.HeapPeakBytes) / (1 << 20) }), "MB")
	out.add("simnet.events_per_tx", perTx(func(r *RepStats) float64 { return float64(r.SimEvents) }), "count")
	for _, l := range Layers {
		out.add("cpu_share."+l, shares[l], "frac")
	}
	cpuPlain, cpuTraced := avg((*RepStats).CPUPerTx), centre(pick(traced, (*RepStats).CPUPerTx))
	out.add("trace.cpu_samples", float64(samples), "count")
	out.add("trace.overhead_frac", cpuTraced/cpuPlain-1, "frac")
	out.note("%d untraced repetitions: %.2f us CPU per tx; a layer's us per tx is its cpu_share times that", len(plain), cpuPlain)

	sustained := avg(func(r *RepStats) float64 { return r.GoodputTPS }) >= 0.98*w.RateTPS &&
		avg(func(r *RepStats) float64 { return r.P99 }) <= ms(KneeP99)
	if err := ramp(run, w, seed, sustained, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ramp steps a workload's cluster through RampRates, one repetition each,
// and reports goodput and median due-time latency at each step, and the
// knee: the highest rate, the workload's own included (baseSustained),
// that confirms 98% of what is offered with p99 within KneeP99. Steps past
// the knee leave transactions unconfirmed by design, so the output checks
// do not apply. A workload without a curve reports zeros, so that every
// traced run prints the same metric names.
func ramp(run Runner, w Workload, seed int64, baseSustained bool, out *Report) error {
	knee := 0.0
	if w.Ramp && baseSustained {
		knee = w.RateTPS
	}
	for _, rate := range RampRates {
		var goodput, p50 float64
		if w.Ramp {
			step := w
			step.RateTPS = float64(rate)
			r, err := run(RepSpec{Workload: step, Seed: seed, Window: Warmup + rampWindow})
			if err != nil {
				return err
			}
			goodput, p50 = r.GoodputTPS, r.P50
			if goodput >= 0.98*step.RateTPS && r.P99 <= ms(KneeP99) {
				knee = step.RateTPS
			}
		}
		out.add(fmt.Sprintf("ramp.r%dk.goodput_tps", rate/1000), goodput, "1/s")
		out.add(fmt.Sprintf("ramp.r%dk.p50_ms", rate/1000), p50, "ms")
	}
	out.add("ramp.knee_rate_tps", knee, "1/s")
	return nil
}
