// Package e2e is the end-to-end benchmark driver. It runs whole Orthrus
// clusters through the public SDK only (repro/orthrus and its scenariodsl),
// so the internal layers can be refactored without touching the numbers
// they are judged by. It owns the load schedule's bookkeeping: every
// transaction has a due time, latency is measured from that due time, and
// every submission that is not confirmed in time counts as failed.
//
// One repetition is one fresh cluster in one fresh process confined to one
// CPU (see startOnOneCPU for why), and a run reports each metric's centre
// across many short repetitions.
package e2e

import (
	"time"
)

// Knobs every workload shares. The batch is large enough that the pulse,
// not the batch size, cuts blocks at every rate below the knee. The first
// second of traffic already runs at steady-state latency, so the warmup
// covers it and no more.
const (
	Protocol  = "Orthrus"
	BatchSize = 1024
	EpochLen  = 128
	Warmup    = time.Second
	Drain     = 3 * time.Second
	// ProcReps is how many repetitions a wall-clock workload's run is
	// split into; each measures an equal share of the run's seconds.
	ProcReps = 10
	// SimMinReps is the least number of times a simulated workload runs:
	// two, so that exact repeatability is checked on every run.
	SimMinReps = 2
	// KneeP99 is the tail latency a load-curve step must stay within to
	// count as sustained.
	KneeP99 = 150 * time.Millisecond
)

// Workload is one named traffic mix on one cluster shape.
type Workload struct {
	Name string
	Why  string
	// Sim selects the discrete-event simulator with the 4-region WAN
	// model (virtual time); otherwise the cluster runs on TransportProc
	// under the wall clock with no injected message delay.
	Sim      bool
	Replicas int
	// Payments is the share of payments in the mix; the rest are
	// contract calls.
	Payments float64
	RateTPS  float64
	Pulse    time.Duration
	// LatencyLimit is the due-time latency beyond which a confirmed
	// transaction still counts as failed. It is a stall detector, set
	// well past anything a healthy run shows, so that a failure is always
	// a defect and never the host's jitter.
	LatencyLimit time.Duration
	// Ramp adds the load curve to this workload's traced run: the same
	// cluster and mix stepped through RampRates.
	Ramp bool

	// Simulated workloads only. Virtual is the submission window in
	// virtual time, warmup included; a run repeats it, it does not
	// stretch it.
	Virtual     time.Duration
	NIC         bool
	ViewTimeout time.Duration
	// CrashAt, when positive, crashes replica CrashReplica for good.
	CrashAt      time.Duration
	CrashReplica int
}

// PaperMix is the paper's payment share (Sec. VII-A).
const PaperMix = 0.46

// Workloads lists the benchmark's workloads. Names are permanent: later
// changes are accepted or rejected on rows keyed by them.
var Workloads = []Workload{
	{
		Name:     "proc4_mixed",
		Why:      "headline real cluster: n=4 on TransportProc, paper mix, 20k tps (under the knee); every message is wire-encoded, framed, queued and decoded",
		Replicas: 4, Payments: PaperMix, RateTPS: 20000,
		Pulse: 20 * time.Millisecond, LatencyLimit: time.Second,
		Ramp: true,
	},
	{
		Name:     "proc4_contract",
		Why:      "same cluster, 0% payments: every tx waits for the global log and runs sequentially, so a payment gain that costs contracts moves this row the other way",
		Replicas: 4, Payments: 0, RateTPS: 20000,
		Pulse: 20 * time.Millisecond, LatencyLimit: time.Second,
	},
	{
		Name:     "proc10_mixed",
		Why:      "n=10 (f=3) on TransportProc, 8k tps: votes grow as n squared, so pbft, wire decode and transport fan-out dominate while ledger work per tx is unchanged",
		Replicas: 10, Payments: PaperMix, RateTPS: 8000,
		Pulse: 20 * time.Millisecond, LatencyLimit: time.Second,
	},
	{
		Name: "sim_wan25",
		Why:  "simulator, 4-region WAN, n=25, NIC model: wire and transport are bypassed, simnet+pbft+core do the work; latency is virtual and exact, wall time is what regenerating figures costs",
		Sim:  true, Replicas: 25, Payments: PaperMix, RateTPS: 2000,
		Pulse: 100 * time.Millisecond, LatencyLimit: 3 * time.Second,
		Virtual: 15 * time.Second, NIC: true,
	},
	{
		Name: "sim_wan10_crash",
		Why:  "simulator, WAN, n=10, a leader crashes at 8s: the only workload that runs view-change code; p99 is the time without service and every tx must still confirm",
		Sim:  true, Replicas: 10, Payments: PaperMix, RateTPS: 1000,
		Pulse: 100 * time.Millisecond, LatencyLimit: 10 * time.Second,
		Virtual: 30 * time.Second, ViewTimeout: 5 * time.Second,
		CrashAt: 8 * time.Second, CrashReplica: 3,
	},
}

// Lookup returns the workload called name.
func Lookup(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// interval is the gap between two due times. It truncates exactly as the
// SDK's client does, so the benchmark's due times and the program's
// submission schedule are the same instants.
func (w Workload) interval() time.Duration {
	return time.Duration(float64(time.Second) / w.RateTPS)
}

// due is when transaction k is due, since run start.
func (w Workload) due(k int) time.Duration {
	return Warmup/2 + time.Duration(k)*w.interval()
}

// count is how many transactions are due within a submission window of
// length d (warmup included).
func (w Workload) count(d time.Duration) int {
	return int((d-Warmup/2)/w.interval()) + 1
}

// window is the submission window, warmup included, of one repetition
// when a run's measured seconds are split between reps repetitions. A
// simulated workload's window is fixed in virtual time.
func (w Workload) window(seconds, reps int) time.Duration {
	if w.Sim {
		return w.Virtual
	}
	return Warmup + time.Duration(seconds)*time.Second/time.Duration(reps)
}
