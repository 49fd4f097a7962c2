package orthrus

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/registry"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/workload"
	"repro/orthrus/scenariodsl"
)

// Net selects the simulated network environment of a run; its String
// method renders "WAN" or "LAN".
type Net = cluster.NetProfile

// The two environments the paper evaluates (Sec. VII-A).
const (
	// WAN spreads replicas over 4 regions: France, US, Australia, Tokyo.
	WAN = cluster.WAN
	// LAN co-locates replicas at one site with 1 Gbps links.
	LAN = cluster.LAN
)

// MaxReplicas is the largest supported cluster size: the bound the
// consensus engines' vote tracking and the F-scale sweep (n up to 1000,
// beyond the paper's largest evaluated n = 128) are validated to.
// Validate rejects larger values.
const MaxReplicas = 1024

// Transport selects the backend that carries replica messages.
type Transport int

const (
	// TransportSim (the default) runs the cluster inside the
	// discrete-event network simulator: virtual time, modeled WAN/LAN
	// delays, deterministic results.
	TransportSim Transport = iota
	// TransportProc runs the cluster over the in-process real transport:
	// one event-loop goroutine per replica, wall-clock timers, and every
	// message wire-encoded and decoded between replicas — the same codec
	// and framing discipline the orthrus-node TCP daemon uses, without
	// sockets. Results are wall-clock measurements of this machine and
	// are NOT deterministic or reproducible across runs; Net only labels
	// the result. Faults and scenarios run as in the simulator, but a
	// straggler slows only its proposal pulse. Validate rejects the analytic
	// SB and live-set sampling. Observer callbacks stream in wall-clock
	// time; the run stops once every replica that is up has confirmed
	// every submission.
	TransportProc
)

// String implements fmt.Stringer.
func (t Transport) String() string {
	if t == TransportProc {
		return "proc"
	}
	return "sim"
}

// Config describes one run. Build it with NewConfig and functional
// options, or fill the fields directly; zero tuning knobs (durations,
// batch sizes, timeouts) take the engine defaults documented on each
// field. Validate reports every problem as a typed error before anything
// executes — the SDK never panics on a bad configuration.
type Config struct {
	// Replicas is the cluster size n (the system runs m = n instances), at
	// most MaxReplicas. Default 16.
	Replicas int
	// Protocol names a registered protocol (see Protocols). Default
	// "Orthrus".
	Protocol string
	// Net picks the WAN or LAN environment. Default WAN.
	Net Net

	// Stragglers slows this many instances by StragglerFactor (default
	// 10x), chosen from the high replica indices.
	Stragglers int
	// StragglerFactor is the slowdown multiplier; 0 means 10.
	StragglerFactor float64

	// CrashFaults crashes this many replicas at CrashAt (detectable
	// faults, Fig. 7); they do not recover. For crashes that recover, use
	// a Scenario.
	CrashFaults int
	// CrashAt is the crash injection time; 0 crashes at run start.
	CrashAt time.Duration
	// ByzantineFaults marks this many replicas Byzantine: they vote only
	// in the instance they lead (undetectable faults, Fig. 8).
	ByzantineFaults int

	// Scenario schedules mid-run fault and load events (crashes that
	// recover, partitions that heal, moving stragglers, load surges); see
	// package scenariodsl. Scenarios require message-level PBFT
	// (AnalyticSB false) and report per-phase windows on the Result.
	Scenario *scenariodsl.Scenario

	// LoadTPS is the open-loop client submission rate. Default 1000.
	LoadTPS float64
	// TotalTxs caps submitted transactions; 0 means no cap (scripted runs
	// cap at the transaction list length automatically).
	TotalTxs int
	// Duration is the submission window. Default 20s.
	Duration time.Duration
	// Warmup is excluded from throughput accounting. Default 2s.
	Warmup time.Duration
	// Drain is the extra time for in-flight txs to confirm. Default
	// 2*Duration.
	Drain time.Duration

	// Accounts sizes the synthetic workload's account population; 0 takes
	// the workload default. PaymentFraction sets the payment share of the
	// synthetic workload: 0 (the zero value) means the paper's 46%, a
	// value in (0, 1] the exact share, and any negative value an explicit
	// all-contract workload (WithPayments(0) sets that sentinel for you).
	Accounts        int
	PaymentFraction float64

	// BatchSize (default 4096), BatchTimeout (default 100ms), Window
	// (pipeline depth), EpochLen (default 32), ViewTimeout (default 10s)
	// and TxSize (default 500 bytes) tune the consensus engine; zeros take
	// those defaults. Only TransportSim charges TxSize; TransportProc
	// carries real encodings, about 50 bytes per transaction today.
	BatchSize    int
	BatchTimeout time.Duration
	Window       int
	EpochLen     uint64
	ViewTimeout  time.Duration
	TxSize       int
	// CensorshipBlocks is the censorship detector's patience in delivered
	// blocks: a replica that watches a feasible transaction stay unproposed
	// while this many blocks deliver in its bucket complains and votes the
	// leader out. 0 takes the engine default (64). Lower it when a run
	// censors leaders (the Censor scenario verb or the censorship preset)
	// so detection fits the run's length.
	CensorshipBlocks uint64

	// SampleLiveSet, when positive, schedules a cluster-wide retained-state
	// census every interval of virtual time, reported on the Result
	// (LiveSetSamples, LiveSetPeak). The soak harness gates on the profile
	// staying flat after warmup. Sampling walks every replica from one
	// bookkeeping event, so it requires the simulated transport.
	SampleLiveSet time.Duration

	// AnalyticSB swaps message-level PBFT for the closed-form quorum-time
	// model (fault-free runs only; stragglers are supported).
	AnalyticSB bool
	// disableNIC turns off the 1 Gbps per-node egress queue model, which
	// is otherwise active on every simulated run (WithNIC).
	disableNIC bool

	// Transport selects the backend carrying replica messages:
	// TransportSim (default, the deterministic simulator) or
	// TransportProc (the in-process real transport under wall-clock
	// time); see Transport for the restrictions real backends carry.
	Transport Transport

	// Seed drives every random choice (network jitter, workload, preset
	// victim selection); equal seeds reproduce runs exactly. NewConfig
	// defaults it to 42; zero is itself a valid seed.
	Seed int64

	// Observer streams per-confirmation, per-window and per-phase metrics
	// during the run; see Observer. Optional.
	Observer Observer
	// CaptureState retains the observer replica's final ledger on the
	// Result (Balance, SharedValue, Converged). Only meaningful for
	// fault-free runs: crashed or partitioned replicas miss blocks and
	// report divergence.
	CaptureState bool

	txs     []*Tx            // scripted transactions (WithTransactions)
	credits map[string]int64 // initial balances for scripted runs
	trace   *workload.Trace  // replayed trace (WithTrace)
	optErr  error            // first option failure, surfaced by Validate
}

// Option mutates a Config under construction; later options override
// earlier ones.
type Option func(*Config)

// NewConfig returns the default configuration with the given options
// applied in order. Every zero field of a directly-filled Config means
// the same thing it does here (engine default), so struct literals and
// option-built configurations behave identically — NewConfig only adds
// the starting Replicas/Protocol/Net/Seed values.
func NewConfig(opts ...Option) Config {
	c := Config{
		Replicas: 16,
		Protocol: "Orthrus",
		Net:      WAN,
		Seed:     42,
	}
	for _, opt := range opts {
		opt(&c)
	}
	return c
}

// WithReplicas sets the cluster size n, in [1, MaxReplicas] (checked by
// Validate).
func WithReplicas(n int) Option { return func(c *Config) { c.Replicas = n } }

// WithClusterSize is WithReplicas under its deployment-facing name: it
// sets the cluster size n (and thereby m = n SB instances), in
// [1, MaxReplicas]. Validate reports out-of-range sizes as ErrInvalidConfig
// before anything runs; quorum math for every registered protocol is
// validated across this whole range — f = (n-1)/3 with commit quorum
// ceil((n+f+1)/2), the classic 2f+1 at the paper's n = 3f+1 sizes.
func WithClusterSize(n int) Option { return WithReplicas(n) }

// WithProtocol selects a registered protocol by name (see Protocols).
func WithProtocol(name string) Option { return func(c *Config) { c.Protocol = name } }

// WithNet selects the WAN or LAN environment.
func WithNet(net Net) Option { return func(c *Config) { c.Net = net } }

// WithLoad sets the open-loop client submission rate in tx/s.
func WithLoad(tps float64) Option { return func(c *Config) { c.LoadTPS = tps } }

// WithDuration sets the submission window.
func WithDuration(d time.Duration) Option { return func(c *Config) { c.Duration = d } }

// WithWarmup sets the warmup slice excluded from throughput accounting.
func WithWarmup(d time.Duration) Option { return func(c *Config) { c.Warmup = d } }

// WithDrain sets the post-window drain time for in-flight confirmations.
func WithDrain(d time.Duration) Option { return func(c *Config) { c.Drain = d } }

// WithTotalTxs caps the number of submitted transactions.
func WithTotalTxs(n int) Option { return func(c *Config) { c.TotalTxs = n } }

// WithStragglers makes count instances stragglers, slowed by factor
// (factor 0 means the paper's 10x); on TransportProc only their proposal
// pulses slow.
func WithStragglers(count int, factor float64) Option {
	return func(c *Config) { c.Stragglers, c.StragglerFactor = count, factor }
}

// WithFaults crashes count replicas at the given time (detectable faults);
// they do not recover. For crashes that recover, use a scenario.
func WithFaults(count int, at time.Duration) Option {
	return func(c *Config) { c.CrashFaults, c.CrashAt = count, at }
}

// WithByzantine marks count replicas Byzantine (selective participation:
// they vote only in the instance they lead).
func WithByzantine(count int) Option { return func(c *Config) { c.ByzantineFaults = count } }

// WithScenario schedules a declarative fault/load timeline on the run; see
// package scenariodsl.
func WithScenario(s *scenariodsl.Scenario) Option { return func(c *Config) { c.Scenario = s } }

// WithBatching sets the consensus batch size and batch timeout (zeros keep
// the engine defaults).
func WithBatching(size int, timeout time.Duration) Option {
	return func(c *Config) { c.BatchSize, c.BatchTimeout = size, timeout }
}

// WithEpochLen sets the epoch length in blocks.
func WithEpochLen(l uint64) Option { return func(c *Config) { c.EpochLen = l } }

// WithLiveSetSampling schedules a retained-state census every interval of
// virtual time; see Config.SampleLiveSet. Requires the simulated
// transport.
func WithLiveSetSampling(interval time.Duration) Option {
	return func(c *Config) { c.SampleLiveSet = interval }
}

// WithViewTimeout sets the failure detector's view-change timeout.
func WithViewTimeout(d time.Duration) Option { return func(c *Config) { c.ViewTimeout = d } }

// WithTxSize sets the modeled transaction size in bytes, which only the
// simulator charges: TransportProc carries real encodings (about 50 bytes).
func WithTxSize(bytes int) Option { return func(c *Config) { c.TxSize = bytes } }

// WithCensorshipDetection sets the censorship detector's patience in
// delivered blocks (0 keeps the engine default of 64). Pair it with the
// Censor scenario verb or the censorship preset so the detector fires
// within the run.
func WithCensorshipDetection(blocks uint64) Option {
	return func(c *Config) { c.CensorshipBlocks = blocks }
}

// WithAccounts sizes the synthetic workload's account population.
func WithAccounts(n int) Option { return func(c *Config) { c.Accounts = n } }

// WithPayments sets the payment fraction of the synthetic workload in
// [0, 1], where 0 means literally no payments (all-contract). To get the
// paper's default 46% mix, leave this option off entirely. A negative
// fraction is rejected by Validate — the negative sentinel belongs to the
// Config field, not this option.
func WithPayments(fraction float64) Option {
	return func(c *Config) {
		if fraction < 0 {
			if c.optErr == nil {
				c.optErr = &ValidationError{Field: "PaymentFraction",
					Reason: fmt.Sprintf("WithPayments wants a fraction in [0,1], got %g", fraction)}
			}
			return
		}
		if fraction == 0 {
			c.PaymentFraction = -1 // the field's explicit all-contract sentinel
			return
		}
		c.PaymentFraction = fraction
	}
}

// WithAnalyticSB swaps message-level PBFT for the closed-form quorum-time
// model (fault-free runs only; its proposals queue on the NIC, WithNIC).
func WithAnalyticSB() Option { return func(c *Config) { c.AnalyticSB = true } }

// WithNIC toggles the 1 Gbps per-node egress model (on by default), the
// simulator's only bandwidth charge: every send of a node serializes on
// it, analytic-SB proposals included; off, no bandwidth is charged.
func WithNIC(enabled bool) Option { return func(c *Config) { c.disableNIC = !enabled } }

// WithTransport selects the message-carrying backend. TransportProc runs
// the cluster over real goroutines and wall-clock time instead of the
// simulator: results become measurements of this machine rather than
// deterministic predictions. See Transport for the full contract.
func WithTransport(t Transport) Option { return func(c *Config) { c.Transport = t } }

// WithSeed sets the simulation seed; equal seeds reproduce runs exactly.
func WithSeed(seed int64) Option { return func(c *Config) { c.Seed = seed } }

// WithObserver streams metrics to o during the run.
func WithObserver(o Observer) Option { return func(c *Config) { c.Observer = o } }

// WithFinalState retains the observer replica's final ledger on the Result
// (Balance, SharedValue, Converged).
func WithFinalState() Option { return func(c *Config) { c.CaptureState = true } }

// WithGenesis credits the given accounts at genesis on every replica; used
// with WithTransactions, whose scripted transactions spend from these
// balances.
func WithGenesis(credits map[string]int64) Option { return func(c *Config) { c.credits = credits } }

// WithTransactions replaces the synthetic workload with an explicit
// transaction list, submitted in order at the configured load rate and
// capped at the list length. Combine with WithGenesis for initial balances
// and a low WithLoad (e.g. 1 tx/s) when later transactions depend on
// earlier ones committing.
func WithTransactions(txs ...*Tx) Option {
	return func(c *Config) { c.txs = append([]*Tx(nil), txs...) }
}

// WithTrace replaces the synthetic workload with a replayed CSV trace (see
// WriteSyntheticTrace), crediting every referenced account with balance at
// genesis — the paper's reset-and-replay methodology. The reader is
// consumed by this call itself, so the returned Option is reusable: apply
// it to as many configurations as needed (each run replays its own copy).
// A malformed trace surfaces as an error from Validate (and therefore
// Run). The run is capped at the trace length unless TotalTxs sets a
// smaller cap.
func WithTrace(r io.Reader, balance int64) Option {
	trace, err := workload.ReadTrace(r, types.Amount(balance))
	return func(c *Config) {
		if err != nil {
			if c.optErr == nil {
				c.optErr = fmt.Errorf("orthrus: WithTrace: %w", err)
			}
			return
		}
		c.trace = trace
	}
}

// ErrInvalidConfig is the sentinel every Validate failure wraps; match
// with errors.Is. Individual problems are *ValidationError values
// (errors.As) and protocol lookup failures additionally wrap
// ErrUnknownProtocol. It is the same value as
// scenariodsl.ErrInvalidConfig, so one errors.Is check covers
// configuration and scenario-DSL failures alike.
var ErrInvalidConfig = errs.ErrInvalidConfig

// ValidationError pinpoints one invalid Config field.
type ValidationError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *ValidationError) Error() string { return "orthrus: invalid " + e.Field + ": " + e.Reason }

// Validate checks the configuration and returns nil or an error wrapping
// ErrInvalidConfig and one *ValidationError per problem. Run validates
// automatically; call Validate directly to check a configuration without
// executing it.
func (c Config) Validate() error {
	_, err := c.lower()
	return err
}

// lower checks c and maps it onto the internal harness, reporting every
// problem as Validate does: the one place the protocol name is looked up
// and the flat engine knobs become a core.Params. What each run needs of
// its own (transaction copies, observer hooks) is left to clusterConfig.
func (c Config) lower() (cluster.Config, error) {
	k := cluster.Config{
		N:               c.Replicas,
		Net:             c.Net,
		Stragglers:      c.Stragglers,
		StragglerFactor: c.StragglerFactor,
		CrashFaults:     c.CrashFaults,
		CrashAt:         c.CrashAt,
		ByzantineFaults: c.ByzantineFaults,
		Scenario:        c.Scenario,
		// The field shares the workload generator's convention directly:
		// 0 = paper default, negative = all-contract.
		Workload: workload.Config{Seed: c.Seed, Accounts: c.Accounts, PaymentFraction: c.PaymentFraction},
		LoadTPS:  c.LoadTPS,
		TotalTxs: c.TotalTxs,
		Duration: c.Duration,
		Warmup:   c.Warmup,
		Drain:    c.Drain,
		Params: core.Params{
			BatchSize:        c.BatchSize,
			BatchTimeout:     c.BatchTimeout,
			Window:           c.Window,
			EpochLen:         c.EpochLen,
			ViewTimeout:      c.ViewTimeout,
			TxSize:           c.TxSize,
			CensorshipBlocks: c.CensorshipBlocks,
		},
		SampleLiveSet: c.SampleLiveSet,
		AnalyticSB:    c.AnalyticSB,
		// The NIC model is a simulation concept; the real transport
		// measures real links, so it never applies there.
		NIC:          !c.disableNIC && c.Transport == TransportSim,
		Seed:         c.Seed,
		CaptureState: c.CaptureState,
	}
	var errs []error
	bad := func(field, format string, args ...any) {
		errs = append(errs, &ValidationError{Field: field, Reason: fmt.Sprintf(format, args...)})
	}
	if c.optErr != nil {
		errs = append(errs, c.optErr)
	}
	if c.Replicas > MaxReplicas {
		bad("Replicas", "%d replicas exceed the supported maximum %d", c.Replicas, MaxReplicas)
	}
	if c.Protocol == "" {
		bad("Protocol", "must name a registered protocol (one of %v)", ProtocolNames())
	} else if p, err := registry.Lookup(c.Protocol); err != nil {
		errs = append(errs, err)
	} else {
		k.Protocol = p.New()
	}
	rules := append(append(k.Check(), k.Params.Check()...), k.Conflicts()...)
	if c.Transport == TransportProc {
		rules = append(rules, k.SimOnly()...)
	}
	for _, r := range rules {
		bad(r.Field, "%s", r.Reason)
	}
	if c.Transport != TransportSim && c.Transport != TransportProc {
		bad("Transport", "must be TransportSim or TransportProc, got Transport(%d)", int(c.Transport))
	}
	for i, t := range c.txs {
		if t == nil || t.tx == nil {
			bad("Transactions", "scripted transaction %d is nil", i)
		}
	}
	if len(c.txs) > 0 && c.trace != nil {
		bad("Workload", "WithTransactions and WithTrace are mutually exclusive")
	}
	if len(c.credits) > 0 && len(c.txs) == 0 {
		bad("Genesis", "WithGenesis requires WithTransactions")
	}
	if len(c.txs) > 0 && c.TotalTxs > len(c.txs) {
		bad("TotalTxs", "cap %d exceeds the %d scripted transactions", c.TotalTxs, len(c.txs))
	}
	if c.trace != nil && c.TotalTxs > c.trace.Len() {
		bad("TotalTxs", "cap %d exceeds the %d-transaction trace", c.TotalTxs, c.trace.Len())
	}
	if len(errs) > 0 {
		return k, fmt.Errorf("%w: %w", ErrInvalidConfig, errors.Join(errs...))
	}
	return k, nil
}

// clusterConfig lowers c onto the internal experiment harness for one
// run, or returns lower's error.
func (c Config) clusterConfig() (cluster.Config, error) {
	ccfg, err := c.lower()
	if err != nil {
		return ccfg, err
	}
	// Each run gets its own copies of scripted or replayed transactions:
	// the harness stamps per-run fields (submit time, cached digest) on
	// submitted transactions, and a Trace carries a read cursor — sharing
	// either across runs would break reproducibility and race under
	// RunMany.
	switch {
	case len(c.txs) > 0:
		// One []Transaction and one []Op hold the whole list's copies.
		nops := 0
		for _, t := range c.txs {
			nops += len(t.tx.Ops)
		}
		src := &fixedSource{credits: c.credits, txs: make([]types.Transaction, len(c.txs))}
		ops := make([]types.Op, 0, nops)
		for i, t := range c.txs {
			ops = append(ops, t.tx.Ops...)
			src.txs[i] = *t.tx
			src.txs[i].Ops = ops[len(ops)-len(t.tx.Ops) : len(ops) : len(ops)]
		}
		ccfg.Source = src
		if ccfg.TotalTxs == 0 {
			ccfg.TotalTxs = len(src.txs)
		}
	case c.trace != nil:
		ccfg.Source = c.trace.Clone()
		if ccfg.TotalTxs == 0 {
			ccfg.TotalTxs = c.trace.Len()
		}
	}
	if obs := c.Observer; obs != nil {
		ccfg.OnConfirm = func(tx *types.Transaction, success bool, reply simnet.Time) {
			obs.OnConfirm(txInfo(tx), success, time.Duration(reply))
		}
		ccfg.OnWindow, ccfg.OnPhase = obs.OnWindow, obs.OnPhase
	}
	return ccfg, nil
}
