package orthrus

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/orthrus/scenariodsl"
)

// smallOpts is a fast fault-free LAN configuration shared by the run tests.
func smallOpts() []Option {
	return []Option{
		WithReplicas(4), WithNet(LAN), WithLoad(500),
		WithDuration(2 * time.Second), WithWarmup(500 * time.Millisecond), WithDrain(2 * time.Second),
		WithBatching(64, 20*time.Millisecond), WithSeed(1),
	}
}

func TestRunConfirmsTransactions(t *testing.T) {
	res, err := Run(context.Background(), smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Confirmed == 0 || res.ThroughputTPS == 0 {
		t.Fatalf("no progress: %s", res)
	}
	if res.Protocol != "Orthrus" || res.Net != "LAN" || res.Replicas != 4 {
		t.Fatalf("config echo wrong: %s", res)
	}
	if len(res.Windows) == 0 || len(res.Breakdown) != 5 {
		t.Fatalf("series/breakdown missing: windows=%d breakdown=%d", len(res.Windows), len(res.Breakdown))
	}
	if res.Halted {
		t.Fatal("fault-free run reported Halted")
	}
}

// TestRunMatchesInternalHarness pins the public API to the internal one:
// the same knobs must measure the same numbers.
func TestRunMatchesInternalHarness(t *testing.T) {
	res, err := Run(context.Background(), smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	want := cluster.Run(lowered(t, NewConfig(smallOpts()...)))
	if res.Confirmed != want.Confirmed || res.ThroughputTPS != want.ThroughputTPS ||
		res.Latency.Mean != want.Latency.Mean || res.SimEvents != want.Events {
		t.Fatalf("public run diverged from internal run:\n  public   %v\n  internal %v", res, want)
	}
}

// replies counts a run's client-visible replies, the drain's included: the
// sum of its series bins.
func replies(res *Result) int {
	n := 0
	for _, w := range res.Windows {
		n += w.Confirmed
	}
	return n
}

func TestObserverStreams(t *testing.T) {
	var confirms int
	var streamed []Window
	res, err := Run(context.Background(), append(smallOpts(),
		WithObserver(ObserverFuncs{
			Confirm: func(tx TxInfo, success bool, at time.Duration) {
				confirms++
				if tx.ID == "" || tx.Kind == "" {
					t.Errorf("empty TxInfo: %+v", tx)
				}
			},
			Window: func(w Window) {
				if w.Index != len(streamed) {
					t.Errorf("window %d arrived out of order (want %d)", w.Index, len(streamed))
				}
				streamed = append(streamed, w)
			},
		}))...)
	if err != nil {
		t.Fatal(err)
	}
	if confirms != replies(res) {
		t.Fatalf("OnConfirm fired %d times, result has %d confirmations", confirms, replies(res))
	}
	if len(streamed) < len(res.Windows) {
		t.Fatalf("streamed %d windows, result has %d", len(streamed), len(res.Windows))
	}
	// Streamed windows agree with the result's series; the stream may add
	// trailing empty windows past the last confirmation.
	for i, w := range streamed {
		if w.End-w.Start != 500*time.Millisecond {
			t.Fatalf("window %d width %v", i, w.End-w.Start)
		}
		if i < len(res.Windows) {
			if w != res.Windows[i] {
				t.Fatalf("streamed window %+v != result window %+v", w, res.Windows[i])
			}
		} else if w.Confirmed != 0 {
			t.Fatalf("trailing streamed window %+v not empty", w)
		}
	}
}

// TestObserverStreamsEveryClosedWindow pins the flush contract: with a run
// length that is not a 0.5 s multiple, every bin in Result.Windows —
// including the trailing partial one — reaches the observer, and the
// streamed confirmations sum to the run's confirmations.
func TestObserverStreamsEveryClosedWindow(t *testing.T) {
	var streamed []Window
	res, err := Run(context.Background(),
		WithReplicas(4), WithNet(LAN), WithLoad(500),
		WithDuration(2*time.Second), WithWarmup(500*time.Millisecond),
		WithDrain(2300*time.Millisecond), // runEnd at 4.3s: last bin is partial
		WithBatching(64, 20*time.Millisecond), WithSeed(1),
		WithObserver(ObserverFuncs{Window: func(w Window) { streamed = append(streamed, w) }}))
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) < len(res.Windows) {
		t.Fatalf("streamed %d windows, result has %d", len(streamed), len(res.Windows))
	}
	total := 0
	for _, w := range streamed {
		total += w.Confirmed
	}
	if total != replies(res) {
		t.Fatalf("streamed windows sum to %d confirmations, run had %d", total, replies(res))
	}
}

func TestObserverPhases(t *testing.T) {
	scn := scenariodsl.New("phase-test").
		CrashAt(800*time.Millisecond, 3).
		RecoverAt(1600*time.Millisecond, 3).
		Build()
	var phases []Phase
	res, err := Run(context.Background(), append(smallOpts(),
		WithScenario(scn),
		WithObserver(ObserverFuncs{Phase: func(p Phase) { phases = append(phases, p) }}))...)
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != len(res.Phases) {
		t.Fatalf("streamed %d phases, result has %d", len(phases), len(res.Phases))
	}
	if !reflect.DeepEqual(phases, res.Phases) {
		t.Fatalf("streamed phases diverge from result:\n  streamed %+v\n  result   %+v", phases, res.Phases)
	}
	if phases[0].Label != "baseline" || phases[1].Label != "crash" || phases[2].Label != "recover" {
		t.Fatalf("phase labels %v", phases)
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, smallOpts()...); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRunCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var windows int
	res, err := Run(ctx, append(smallOpts(),
		WithObserver(ObserverFuncs{Window: func(w Window) {
			windows++
			if windows == 2 {
				cancel() // cancel from inside the run: stops at the next window poll
			}
		}}))...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if windows > 3 {
		t.Fatalf("run kept going after cancellation: %d windows", windows)
	}
	// The partial measurements survive alongside the error, and the
	// throughput is a rate over the elapsed window (halt at 1.5s with 0.5s
	// warmup → 1s), not the configured 1.5s one.
	if res == nil || !res.Halted {
		t.Fatalf("cancelled run must return the partial result with Halted set, got %+v", res)
	}
	if want := float64(res.Confirmed); res.ThroughputTPS != want {
		t.Fatalf("halted ThroughputTPS = %g, want %g (Confirmed over the 1s elapsed window)", res.ThroughputTPS, want)
	}
}

// TestRegisterPublicSeam registers a protocol through the public API only
// — no internal imports needed beyond what the SDK re-exports — and runs
// it end to end.
func TestRegisterPublicSeam(t *testing.T) {
	err := Register("Hydra", "dynamic ordering, no fast path", func() Mode {
		return Mode{
			Name:      "Hydra",
			NewGlobal: func(m int) GlobalOrdering { return DynamicOrdering(m) },
		}
	})
	if err != nil && !errors.Is(err, ErrDuplicateProtocol) {
		// Duplicate only if another test in this process registered it.
		t.Fatal(err)
	}
	if _, err := LookupProtocol("Hydra"); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), append(smallOpts(), WithProtocol("Hydra"))...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol != "Hydra" || res.Confirmed == 0 {
		t.Fatalf("registered protocol did not run: %s", res)
	}
	// Registering the same name again is the typed duplicate error.
	if err := Register("Hydra", "again", func() Mode { return Mode{} }); !errors.Is(err, ErrDuplicateProtocol) {
		t.Fatalf("want ErrDuplicateProtocol, got %v", err)
	}
}

// TestRunReportsRegisteredName pins that a run reports the name its
// protocol was registered and selected under, not the Mode's own Name:
// an alias of Orthrus, and a Mode that leaves Name empty.
func TestRunReportsRegisteredName(t *testing.T) {
	for name, mode := range map[string]func() Mode{
		"OrthrusAlias": func() Mode { return Mode{Name: "Orthrus", NewGlobal: DynamicOrdering} },
		"Unnamed":      func() Mode { return Mode{NewGlobal: DynamicOrdering} },
	} {
		if err := Register(name, "test protocol", mode); err != nil && !errors.Is(err, ErrDuplicateProtocol) {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), append(smallOpts(), WithProtocol(name))...)
		if err != nil {
			t.Fatal(err)
		}
		if res.Protocol != name {
			t.Fatalf("WithProtocol(%q) reported Protocol %q", name, res.Protocol)
		}
	}
}

func TestRunInvalidConfigDoesNotRun(t *testing.T) {
	if _, err := Run(context.Background(), WithReplicas(0)); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("want ErrInvalidConfig, got %v", err)
	}
}

func TestRunManySerialMatchesParallel(t *testing.T) {
	cfgs := []Config{
		NewConfig(smallOpts()...),
		NewConfig(append(smallOpts(), WithProtocol("ISS"))...),
		NewConfig(append(smallOpts(), WithStragglers(1, 10))...),
	}
	serial, err := RunMany(context.Background(), cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunMany(context.Background(), cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel RunMany results differ from serial")
	}
	if serial[1].Protocol != "ISS" {
		t.Fatalf("results out of order: %v", serial[1])
	}
}

func TestRunManyValidatesUpFront(t *testing.T) {
	cfgs := []Config{NewConfig(smallOpts()...), NewConfig(WithReplicas(-1))}
	_, err := RunMany(context.Background(), cfgs, 1)
	if !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("want ErrInvalidConfig, got %v", err)
	}
}

func TestScriptedRunWithFinalState(t *testing.T) {
	pay := Payment("alice", "bob", 30, 1)
	call := ContractCall("bob", []string{"bob"}, 5, 2, SharedAssign("counter", 7))
	var confirmed []string
	res, err := Run(context.Background(),
		WithReplicas(4), WithNet(LAN), WithLoad(1),
		WithDuration(3*time.Second), WithDrain(3*time.Second),
		WithBatching(16, 20*time.Millisecond), WithSeed(1),
		WithGenesis(map[string]int64{"alice": 100, "bob": 50}),
		WithTransactions(pay, call),
		WithFinalState(),
		WithObserver(ObserverFuncs{Confirm: func(tx TxInfo, success bool, at time.Duration) {
			if success {
				confirmed = append(confirmed, tx.ID)
			}
		}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(confirmed) != 2 || confirmed[0] != pay.ID() || confirmed[1] != call.ID() {
		t.Fatalf("confirmations %v, want [%s %s]", confirmed, pay.ID(), call.ID())
	}
	if a, b, cnt := res.Balance("alice"), res.Balance("bob"), res.SharedValue("counter"); a != 70 || b != 75 || cnt != 7 {
		t.Fatalf("final state alice=%d bob=%d counter=%d", a, b, cnt)
	}
	if !res.Converged {
		t.Fatal("replicas did not converge")
	}
	if pay.Kind() != "payment" || call.Kind() != "contract" {
		t.Fatalf("kinds %s/%s", pay.Kind(), call.Kind())
	}
}

func TestTraceReplayRun(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSyntheticTrace(&buf, 200, 100, 2024); err != nil {
		t.Fatal(err)
	}
	frozen := buf.Bytes()
	replay := func(protocol string) *Result {
		res, err := Run(context.Background(),
			WithProtocol(protocol), WithReplicas(4), WithNet(LAN),
			WithTrace(bytes.NewReader(frozen), 1_000_000),
			WithLoad(400), WithDuration(2*time.Second), WithDrain(5*time.Second),
			WithBatching(64, 20*time.Millisecond), WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if got := replies(replay("Orthrus")); got != 200 {
		t.Fatalf("replayed %d confirmations, want 200", got)
	}
	// The same frozen trace replays under a different protocol.
	if got := replies(replay("ISS")); got != 200 {
		t.Fatalf("ISS replayed %d confirmations, want 200", got)
	}
}

// TestTraceConfigReusable is the shared-cursor regression: one Config
// built with WithTrace must reproduce exactly when run repeatedly and when
// listed multiple times in a parallel RunMany — the trace is cloned per
// run, cursor and all.
func TestTraceConfigReusable(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSyntheticTrace(&buf, 100, 50, 7); err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(
		WithReplicas(4), WithNet(LAN),
		WithTrace(bytes.NewReader(buf.Bytes()), 1_000_000),
		WithLoad(200), WithDuration(2*time.Second), WithDrain(4*time.Second),
		WithBatching(64, 20*time.Millisecond), WithSeed(3))
	first, err := cfg.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	second, err := cfg.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same trace Config produced different results:\n  %v\n  %v", first, second)
	}
	many, err := RunMany(context.Background(), []Config{cfg, cfg}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(many[0], many[1]) || !reflect.DeepEqual(many[0], first) {
		t.Fatal("parallel runs of one trace Config diverged")
	}
}

// runReused runs the same payment submitted twice, 1/load apart, on a
// 4-replica LAN cluster over backend tr, and checks what holds whenever
// the second submission comes: alice is debited once, every replica
// agrees, no escrow is left open, both submissions complete, and a Proc
// run stops as soon as they have, well inside its duration and drain.
func runReused(t *testing.T, tr Transport, load float64, opts ...Option) *Result {
	t.Helper()
	const duration, drain = time.Second, time.Second
	start := time.Now()
	res, err := Run(context.Background(), append([]Option{
		WithTransport(tr), WithReplicas(4), WithNet(LAN), WithLoad(load),
		WithDuration(duration), WithWarmup(reuseWarmup), WithDrain(drain),
		WithBatching(16, 20*time.Millisecond), WithSeed(1),
		WithGenesis(map[string]int64{"alice": 100}),
		WithTransactions(Payment("alice", "bob", 10, 1), Payment("alice", "bob", 10, 1)),
		WithFinalState()}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	if a, b := res.Balance("alice"), res.Balance("bob"); a != 90 || b != 10 {
		t.Fatalf("alice=%d bob=%d, want 90 and 10: the reused transaction ran twice", a, b)
	}
	if !res.Converged || res.EscrowsOutstanding() != 0 {
		t.Fatalf("converged=%v escrows outstanding=%d", res.Converged, res.EscrowsOutstanding())
	}
	if unconfirmed := res.Submitted - replies(res); res.Submitted != 2 || unconfirmed != 0 {
		t.Fatalf("submitted %d, unconfirmed %d: every submission of the content must complete", res.Submitted, unconfirmed)
	}
	if tr == TransportProc && took > (duration+drain)*3/4 {
		t.Fatalf("the Proc run took %v of its %v budget: it did not drain once both submissions confirmed", took, duration+drain)
	}
	return res
}

// reuseWarmup is runReused's warmup; the first submission is due at half
// of it.
const reuseWarmup = 200 * time.Millisecond

// reuseBackends are the backends the reuse tests run on: Proc is
// wall-clock, so -short leaves it out.
func reuseBackends() []Transport {
	if testing.Short() {
		return []Transport{TransportSim}
	}
	return []Transport{TransportSim, TransportProc}
}

// TestReusedTransactionRunsOnce pins Payment's contract — a transaction is
// its content, so submitting the same (from, to, amount, nonce) twice is
// one transaction — on both backends. The two submissions are 10 ms apart,
// so the second reaches each replica while the first is still in its
// transaction table (a confirmed record refuses re-submission until the
// checkpoint GC frees it). The one content's replies complete both
// submissions.
func TestReusedTransactionRunsOnce(t *testing.T) {
	for _, tr := range reuseBackends() {
		t.Run(tr.String(), func(t *testing.T) { runReused(t, tr, 100) })
	}
}

// TestReusedAfterConfirmCompletes: the second submission of a content
// comes 500 ms after the first, when every replica has long confirmed it,
// and inside one checkpoint interval (two transactions finish no epoch),
// so every replica refuses it as a confirmed content and no reply to it
// will ever come. The client completes it at once from the replies the
// content already has, with the content's outcome.
func TestReusedAfterConfirmCompletes(t *testing.T) {
	for _, tr := range reuseBackends() {
		t.Run(tr.String(), func(t *testing.T) {
			var (
				mu sync.Mutex
				at []time.Duration
			)
			runReused(t, tr, 2, WithObserver(ObserverFuncs{Confirm: func(_ TxInfo, ok bool, d time.Duration) {
				if !ok {
					t.Error("the payment confirmed as aborted")
				}
				mu.Lock()
				at = append(at, d)
				mu.Unlock()
			}}))
			// The simulator submits at reuseWarmup/2 and 500 ms later; the
			// late submission's reply lands as it is submitted.
			if second := reuseWarmup/2 + 500*time.Millisecond; tr == TransportSim && (len(at) != 2 || at[0] >= second || at[1] != second) {
				t.Fatalf("confirmations at %v, want the first before %v and the second at it", at, second)
			}
		})
	}
}

// TestSharedTxAcrossConfigs is the shared-pointer regression: passing the
// same *Tx values to several configs of a parallel RunMany must be safe
// (each run submits its own clones) and reproducible.
func TestSharedTxAcrossConfigs(t *testing.T) {
	pay := Payment("alice", "bob", 30, 1)
	cfg := func(protocol string) Config {
		return NewConfig(
			WithProtocol(protocol), WithReplicas(4), WithNet(LAN),
			WithLoad(1), WithDuration(2*time.Second), WithDrain(2*time.Second),
			WithBatching(16, 20*time.Millisecond), WithSeed(1),
			WithGenesis(map[string]int64{"alice": 100}),
			WithTransactions(pay), WithFinalState())
	}
	cfgs := []Config{cfg("Orthrus"), cfg("ISS"), cfg("Ladon"), cfg("Orthrus")}
	res, err := RunMany(context.Background(), cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if replies(r) != 1 || r.Balance("bob") != 30 {
			t.Fatalf("run %d: confirmations=%d bob=%d", i, replies(r), r.Balance("bob"))
		}
	}
	if !reflect.DeepEqual(res[0], res[3]) {
		t.Fatal("identical configs sharing a Tx diverged")
	}
}
