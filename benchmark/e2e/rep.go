package e2e

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/benchmark/gen"
	"repro/benchmark/report"
	"repro/orthrus"
	"repro/orthrus/scenariodsl"
)

// RepSpec asks for one repetition: one fresh cluster run for a submission
// window of Window (warmup included) on transactions drawn from Seed. A
// non-empty Profile is a file that receives a CPU profile of the run.
type RepSpec struct {
	Workload Workload
	Seed     int64
	Window   time.Duration
	Profile  string
}

// RepStats is what one repetition measured. Latencies are due-time
// latencies in milliseconds; the sample is the transactions due after
// warmup.
type RepStats struct {
	SetupS float64 // median time to build the input, seconds

	Submitted int // transactions handed to the program
	Confirmed int // of those, confirmed by f+1 replicas before the drain deadline
	Aborted   int
	Late      int // sampled transactions confirmed later than the latency limit
	Sample    int // size of the latency sample

	GoodputTPS    float64
	Mean          float64
	P50, P99      float64
	P999          float64
	GenLate50     float64 // due-time minus the SDK's submit-time percentile over all transactions
	GenLate99     float64
	StageMS       []float64 // the program's five-stage breakdown, in its plot order
	WallS, CPUS   float64   // across the orthrus.Run call
	Mallocs       uint64
	AllocBytes    uint64
	GCCycles      uint32
	GCPauseMaxMS  float64
	HeapPeakBytes uint64
	SimEvents     uint64
	InWindow      int // confirmations the program itself counted inside the window

	// Problems lists the output checks that failed.
	Problems []string
}

// Failed is how many of the repetition's submissions count as failed: all
// of them if an output check failed.
func (r *RepStats) Failed() int {
	if len(r.Problems) > 0 {
		return r.Submitted
	}
	return r.Submitted - r.Confirmed + r.Aborted + r.Late
}

// CPUPerTx is the CPU time of the run per confirmed transaction, in
// microseconds.
func (r *RepStats) CPUPerTx() float64 { return r.CPUS * 1e6 / float64(max(r.Confirmed, 1)) }

// A repetition builds its input at least setupBuilds times and for at least
// setupTime; the median build time is its set-up time. One build of a small
// input takes ten milliseconds, too short to time steadily.
const (
	setupBuilds = 5
	setupTime   = 100 * time.Millisecond
)

// collector receives the program's confirmations. The SDK reports them one
// at a time (under its own lock on Proc, from the single simulation
// goroutine on sim), so it needs no lock of its own.
type collector struct {
	index   map[uint64]int32
	reply   []int64 // time of the f+1-th reply since run start, -1 until it arrives
	aborted int
	strays  int // confirmations of an unknown ID, or a second one of a known ID
}

func (c *collector) onConfirm(tx orthrus.TxInfo, success bool, at time.Duration) {
	id, err := parseID(tx.ID)
	k, known := c.index[id]
	if err != nil || !known || c.reply[k] >= 0 {
		c.strays++
		return
	}
	c.reply[k] = int64(at)
	if !success {
		c.aborted++
	}
}

// options builds the SDK configuration of one repetition.
func (w Workload) options(in *Input, d time.Duration, obs orthrus.Observer) []orthrus.Option {
	opts := []orthrus.Option{
		orthrus.WithProtocol(Protocol),
		orthrus.WithReplicas(w.Replicas),
		orthrus.WithBatching(BatchSize, w.Pulse),
		orthrus.WithEpochLen(EpochLen),
		orthrus.WithLoad(w.RateTPS),
		orthrus.WithWarmup(Warmup),
		orthrus.WithDuration(d),
		orthrus.WithDrain(Drain),
		orthrus.WithTransactions(in.Txs...),
		orthrus.WithGenesis(in.Genesis),
		orthrus.WithFinalState(),
		orthrus.WithObserver(obs),
	}
	if !w.Sim {
		return append(opts, orthrus.WithTransport(orthrus.TransportProc))
	}
	opts = append(opts, orthrus.WithNet(orthrus.WAN), orthrus.WithNIC(w.NIC))
	if w.ViewTimeout > 0 {
		opts = append(opts, orthrus.WithViewTimeout(w.ViewTimeout))
	}
	if w.CrashAt > 0 {
		opts = append(opts, orthrus.WithScenario(
			scenariodsl.New("leader-crash").CrashAt(w.CrashAt, w.CrashReplica).Build()))
	}
	return opts
}

// RunRep builds the repetition's input, runs one fresh cluster on it and
// joins the program's confirmations to the due times.
func RunRep(spec RepSpec) (*RepStats, error) {
	w, d := spec.Workload, spec.Window
	var in *Input
	var builds []float64
	for start := time.Now(); len(builds) < setupBuilds || time.Since(start) < setupTime; {
		t0 := time.Now()
		var err error
		if in, err = BuildInput(w, spec.Seed, w.count(d)); err != nil {
			return nil, err
		}
		builds = append(builds, time.Since(t0).Seconds())
	}
	col := &collector{index: in.index, reply: make([]int64, len(in.Txs))}
	for i := range col.reply {
		col.reply[i] = -1
	}
	opts := w.options(in, d, orthrus.ObserverFuncs{Confirm: col.onConfirm})

	runtime.GC() // the run starts from the input alone, not from set-up's garbage
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stopPeak := watchHeapPeak()
	var profile *os.File
	if spec.Profile != "" {
		f, err := os.Create(spec.Profile)
		if err != nil {
			stopPeak()
			return nil, err
		}
		profile = f
		// The profiler's default 100 Hz gives a few hundred samples for a
		// run that uses half a core. Setting the rate first makes
		// StartCPUProfile's own call a no-op (it logs one line saying so).
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(f); err != nil {
			stopPeak()
			return nil, err
		}
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	res, err := orthrus.Run(context.Background(), opts...)
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	peak := stopPeak()
	runtime.ReadMemStats(&m1)
	if profile != nil {
		pprof.StopCPUProfile()
		if cerr := profile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}

	r := &RepStats{
		SetupS: median(builds), Submitted: len(in.Txs), Aborted: col.aborted,
		WallS: wall.Seconds(), CPUS: cpu.Seconds(),
		Mallocs: m1.Mallocs - m0.Mallocs, AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		GCCycles: m1.NumGC - m0.NumGC, HeapPeakBytes: peak,
		SimEvents: res.SimEvents, InWindow: res.Confirmed,
	}
	for i := m0.NumGC; i < m1.NumGC && i < m0.NumGC+uint32(len(m1.PauseNs)); i++ {
		r.GCPauseMaxMS = max(r.GCPauseMaxMS, float64(m1.PauseNs[i%uint32(len(m1.PauseNs))])/1e6)
	}
	for _, s := range res.Breakdown {
		r.StageMS = append(r.StageMS, ms(s.Mean))
	}

	var all, sample []int64
	inWindow := 0
	for k, at := range col.reply {
		if at < 0 {
			continue
		}
		r.Confirmed++
		if at >= int64(Warmup) && at <= int64(d) {
			inWindow++
		}
		due := w.due(k)
		lat := at - int64(due)
		all = append(all, lat)
		if due >= Warmup {
			sample = append(sample, lat)
			if lat > int64(w.LatencyLimit) {
				r.Late++
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	r.Sample = len(sample)
	r.GoodputTPS = float64(inWindow) / (d - Warmup).Seconds()
	r.P50, r.P99, r.P999 = percentileMS(sample, 50), percentileMS(sample, 99), percentileMS(sample, 99.9)
	for _, lat := range sample {
		r.Mean += float64(lat) / float64(time.Millisecond) / float64(len(sample))
	}
	r.GenLate50 = percentileMS(all, 50) - ms(res.Latency.P50)
	r.GenLate99 = percentileMS(all, 99) - ms(res.Latency.P99)

	r.check(w, in, res, col, inWindow)
	return r, nil
}

// check compares the program's outputs with what the inputs imply.
func (r *RepStats) check(w Workload, in *Input, res *orthrus.Result, col *collector, inWindow int) {
	bad := func(format string, args ...any) { r.Problems = append(r.Problems, fmt.Sprintf(format, args...)) }
	if res.Submitted != r.Submitted {
		bad("program submitted %d of %d transactions", res.Submitted, r.Submitted)
	}
	if r.Confirmed != r.Submitted {
		bad("%d of %d transactions confirmed by f+1 replicas", r.Confirmed, r.Submitted)
	}
	if res.Aborted != 0 || r.Aborted != 0 {
		bad("%d transactions aborted (observer saw %d); the workload never overdrafts", res.Aborted, r.Aborted)
	}
	if col.strays != 0 {
		bad("%d confirmations of unknown or already confirmed transactions", col.strays)
	}
	if res.Confirmed != inWindow {
		bad("program counts %d confirmations in the window, observer %d", res.Confirmed, inWindow)
	}
	if res.Halted {
		bad("run halted early")
	}
	switch {
	case w.CrashAt > 0:
		// One crashed replica led one instance: the observer sees that
		// instance change view, once unless the next leader times out too.
		// The crashed replica misses blocks for good, so ledgers cannot
		// converge.
		if res.ViewChanges < 1 || res.ViewChanges > 2 {
			bad("%d view changes, want those of one crashed leader", res.ViewChanges)
		}
	case res.ViewChanges != 0:
		bad("%d view changes in a fault-free run", res.ViewChanges)
	case w.Sim && !res.Converged:
		bad("replica ledgers diverged")
	}
	if r.Confirmed != r.Submitted {
		return // the final ledger is only defined once everything committed
	}

	// A simulated run drains: the observer replica has executed every
	// transaction and its ledger must match the reference exactly. A Proc
	// run stops the replicas the moment f+1 of them have confirmed the
	// last transaction, so the observer may trail by the blocks in flight:
	// an account the stream's tail does not touch must still match
	// exactly, one it touches must lie within what the tail can move.
	tail := 0
	if !w.Sim {
		tail = min(r.Submitted, int(settle/w.interval()))
	}
	head := r.Submitted - tail
	want := gen.Balances(in.Specs[:head])
	lo, hi := append([]int64(nil), want...), append([]int64(nil), want...)
	for _, s := range in.Specs[head:] {
		lo[s.From] -= s.Amount
		if s.Kind == gen.TwoPayer {
			lo[s.From2] -= s.Amount2
		}
		if s.Kind != gen.Contract {
			hi[s.To] += s.Amount + s.Amount2
		}
	}
	for a := range want {
		if got := res.Balance(gen.Account(a)); got < lo[a] || got > hi[a] {
			bad("account %d ends at %d, want %d to %d", a, got, lo[a], hi[a])
			break
		}
	}
	if n := res.EscrowsOutstanding(); w.Sim && n != 0 {
		bad("%d escrows left open", n)
	}
	// The global order decides which assignment to a record lands last,
	// so any assigned value (or the initial 0) is a legal final value.
	assigned := make(map[[2]int64]bool)
	for _, s := range in.Specs {
		for i := 0; i < s.NRecords; i++ {
			assigned[[2]int64{int64(s.Records[i]), s.Values[i]}] = true
		}
	}
	for rec := 0; rec < gen.Records; rec++ {
		if v := res.SharedValue(gen.Record(rec)); v != 0 && !assigned[[2]int64{int64(rec), v}] {
			bad("record %d ends at %d, which no transaction assigned", rec, v)
			break
		}
	}
}

// settle bounds how far the observer replica of a Proc run can trail the
// f+1 fastest when the run stops: the transactions due in the last half
// second, twenty-five pulses' worth of blocks.
const settle = 500 * time.Millisecond

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// watchHeapPeak samples the heap's size until the returned function is
// called, which returns the largest size seen. Reading one runtime metric
// twenty times a second stops nothing and costs nothing measurable.
func watchHeapPeak() (stop func() uint64) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		wg.Wait()
		return peak
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentileMS is the nearest-rank p-th percentile of sorted, in ms.
func percentileMS(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := min(max(int(math.Ceil(float64(len(sorted))*p/100))-1, 0), len(sorted)-1)
	return float64(sorted[i]) / float64(time.Millisecond)
}

func median(vs []float64) float64 {
	_, m, _ := report.Quartiles(vs)
	return m
}

// centre is the mean of vs after dropping the lowest and the highest
// fifth: the statistic a run reports across its repetitions. A repetition
// that a host stall hit cannot move it, and unlike the median it still
// averages over most repetitions, so it stays steady when they fall into
// two groups.
func centre(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	s = s[len(s)/5 : len(s)-len(s)/5]
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}
