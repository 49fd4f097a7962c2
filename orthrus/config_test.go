package orthrus

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/types"
	"repro/orthrus/scenariodsl"
)

// The run-shape vocabulary is the harness's own, re-exported: each of these
// stops compiling if the SDK grows a second declaration of the type.
var (
	_ cluster.NetProfile    = Net(0)
	_ cluster.WindowStat    = Window{}
	_ cluster.PhaseWindow   = Phase{}
	_ cluster.LiveSetSample = LiveSetSample{}
	_ metrics.Summary       = Latency{}
)

// validTrace freezes a small synthetic trace for option tests.
func validTrace(t *testing.T) io.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSyntheticTrace(&buf, 10, 50, 1); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestNewConfigDefaults(t *testing.T) {
	c := NewConfig()
	if c.Replicas != 16 || c.Protocol != "Orthrus" || c.Net != WAN || c.Seed != 42 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	if c.disableNIC {
		t.Fatalf("NIC should default on: %+v", c)
	}
	if c.PaymentFraction != 0 {
		t.Fatalf("PaymentFraction should default 0 (paper default), got %g", c.PaymentFraction)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("default config must validate: %v", err)
	}
}

// TestZeroValueConfig pins the struct-literal contract: a directly-filled
// Config means the same thing as an option-built one — zero knobs are
// engine defaults, so the zero workload is the paper's 46% payments and
// the NIC model is active.
func TestZeroValueConfig(t *testing.T) {
	ccfg := lowered(t, Config{Replicas: 4, Protocol: "Orthrus"})
	if ccfg.Workload.PaymentFraction != 0 {
		t.Fatalf("zero PaymentFraction must reach the workload as its own default, got %g", ccfg.Workload.PaymentFraction)
	}
	if !ccfg.NIC {
		t.Fatal("zero-value Config must keep the NIC model on")
	}
	// WithPayments(0) is the explicit all-contract request.
	if got := lowered(t, NewConfig(WithPayments(0))).Workload.PaymentFraction; got >= 0 {
		t.Fatalf("WithPayments(0) must map to the all-contract sentinel, got %g", got)
	}
	if got := lowered(t, NewConfig(WithNIC(false))); got.NIC {
		t.Fatal("WithNIC(false) must disable the NIC model")
	}
}

// lowered is c.clusterConfig() for a configuration the test knows is valid.
func lowered(t *testing.T, c Config) cluster.Config {
	t.Helper()
	ccfg, err := c.clusterConfig()
	if err != nil {
		t.Fatal(err)
	}
	return ccfg
}

func TestOptionsApplyInOrder(t *testing.T) {
	c := NewConfig(WithLoad(100), WithReplicas(4), WithLoad(250))
	if c.LoadTPS != 250 {
		t.Fatalf("later option must override earlier: LoadTPS = %g", c.LoadTPS)
	}
	if c.Replicas != 4 {
		t.Fatalf("Replicas = %d", c.Replicas)
	}
}

func TestOptionsSetFields(t *testing.T) {
	scn := scenariodsl.New("opt-test").CrashAt(time.Second, 1).Build()
	obs := ObserverFuncs{}
	c := NewConfig(
		WithReplicas(7),
		WithProtocol("ISS"),
		WithNet(LAN),
		WithLoad(123),
		WithDuration(9*time.Second),
		WithWarmup(time.Second),
		WithDrain(4*time.Second),
		WithTotalTxs(50),
		WithStragglers(2, 5),
		WithByzantine(1),
		WithScenario(scn),
		WithBatching(256, 50*time.Millisecond),
		WithEpochLen(64),
		WithViewTimeout(3*time.Second),
		WithTxSize(200),
		WithAccounts(1000),
		WithPayments(0.5),
		WithNIC(false),
		WithSeed(7),
		WithObserver(obs),
		WithFinalState(),
	)
	if c.Replicas != 7 || c.Protocol != "ISS" || c.Net != LAN || c.LoadTPS != 123 ||
		c.Duration != 9*time.Second || c.Warmup != time.Second || c.Drain != 4*time.Second ||
		c.TotalTxs != 50 || c.Stragglers != 2 || c.StragglerFactor != 5 || c.ByzantineFaults != 1 ||
		c.Scenario != scn || c.BatchSize != 256 || c.BatchTimeout != 50*time.Millisecond ||
		c.EpochLen != 64 || c.ViewTimeout != 3*time.Second || c.TxSize != 200 ||
		c.Accounts != 1000 || c.PaymentFraction != 0.5 || !c.disableNIC || c.Seed != 7 ||
		c.Observer == nil || !c.CaptureState {
		t.Fatalf("options not applied: %+v", c)
	}
	// WithFaults conflicts with the scenario above; check it separately.
	c2 := NewConfig(WithFaults(2, 3*time.Second))
	if c2.CrashFaults != 2 || c2.CrashAt != 3*time.Second {
		t.Fatalf("fault options not applied: %+v", c2)
	}
}

func TestValidateTable(t *testing.T) {
	scn := scenariodsl.New("v").CrashAt(time.Second, 5).Build()
	cases := []struct {
		name string
		opts []Option
		want string // substring of the error
	}{
		{"replicas", []Option{WithReplicas(0)}, "Replicas"},
		{"negative replicas", []Option{WithReplicas(-3)}, "Replicas"},
		{"unknown protocol", []Option{WithProtocol("NoSuch")}, "unknown protocol"},
		{"empty protocol", []Option{WithProtocol("")}, "Protocol"},
		{"bad net", []Option{WithNet(Net(9))}, "Net"},
		{"negative stragglers", []Option{WithStragglers(-1, 0)}, "Stragglers"},
		{"too many stragglers", []Option{WithReplicas(4), WithStragglers(5, 0)}, "Stragglers"},
		{"negative straggler factor", []Option{WithStragglers(1, -2)}, "StragglerFactor"},
		{"negative crash faults", []Option{WithFaults(-1, 0)}, "CrashFaults"},
		{"crash everyone", []Option{WithReplicas(4), WithFaults(4, 0)}, "CrashFaults"},
		{"negative crash time", []Option{WithFaults(1, -time.Second)}, "CrashAt"},
		{"negative byzantine", []Option{WithByzantine(-1)}, "ByzantineFaults"},
		{"byzantine everyone", []Option{WithReplicas(4), WithByzantine(4)}, "ByzantineFaults"},
		{"negative load", []Option{WithLoad(-1)}, "LoadTPS"},
		{"NaN load", []Option{WithLoad(math.NaN())}, "LoadTPS"},
		{"infinite load", []Option{WithLoad(math.Inf(1))}, "LoadTPS"},
		{"load too small to pace", []Option{WithLoad(1e-300)}, "LoadTPS"},
		{"huge straggler factor", []Option{WithStragglers(1, 1e300)}, "StragglerFactor"},
		{"huge straggle scale", []Option{WithScenario(scenariodsl.New("v").StraggleAt(time.Second, 1e300, 1).Build())}, "Scenario"},
		{"NaN payments", []Option{WithPayments(math.NaN())}, "PaymentFraction"},
		{"NaN straggler factor", []Option{WithStragglers(1, math.NaN())}, "StragglerFactor"},
		{"NaN straggle scale", []Option{WithScenario(scenariodsl.New("v").StraggleAt(time.Second, math.NaN(), 1).Build())}, "Scenario"},
		{"NaN load surge", []Option{WithScenario(scenariodsl.New("v").LoadSurgeAt(time.Second, math.NaN()).Build())}, "Scenario"},
		{"load surge too small to pace", []Option{WithLoad(100), WithScenario(scenariodsl.New("v").LoadSurgeAt(time.Second, 1e-300).Build())}, "Scenario"},
		{"negative duration", []Option{WithDuration(-time.Second)}, "Duration"},
		{"negative warmup", []Option{WithWarmup(-time.Second)}, "Warmup"},
		{"negative drain", []Option{WithDrain(-time.Second)}, "Drain"},
		{"negative total txs", []Option{WithTotalTxs(-1)}, "TotalTxs"},
		{"negative accounts", []Option{WithAccounts(-1)}, "Accounts"},
		{"payments over 1", []Option{WithPayments(1.5)}, "PaymentFraction"},
		{"negative payments", []Option{WithPayments(-0.5)}, "PaymentFraction"},
		{"negative batch", []Option{WithBatching(-1, 0)}, "BatchSize"},
		{"negative batch timeout", []Option{WithBatching(0, -time.Second)}, "BatchTimeout"},
		{"negative view timeout", []Option{WithViewTimeout(-time.Second)}, "ViewTimeout"},
		{"negative tx size", []Option{WithTxSize(-1)}, "TxSize"},
		// Time knobs whose arithmetic wraps: Drain defaults to 2 x
		// Duration and their sum sizes the run; a timeout or a straggled
		// pulse (BatchTimeout x factor) is added to the clock.
		{"duration overflows with its drain", []Option{WithDuration(1 << 62), WithTotalTxs(100)}, "Duration"},
		{"huge drain", []Option{WithDrain(math.MaxInt64)}, "Drain"},
		{"huge warmup", []Option{WithWarmup(math.MaxInt64)}, "Warmup"},
		{"huge crash time", []Option{WithFaults(1, math.MaxInt64)}, "CrashAt"},
		{"huge batch timeout", []Option{WithBatching(0, math.MaxInt64)}, "BatchTimeout"},
		{"straggled pulse overflows", []Option{WithBatching(0, 3*time.Hour), WithStragglers(1, 1e6)}, "BatchTimeout"},
		{"huge view timeout", []Option{WithViewTimeout(math.MaxInt64)}, "ViewTimeout"},
		{"huge epoch", []Option{WithEpochLen(1 << 62)}, "EpochLen"},
		{"too many replicas", []Option{WithReplicas(MaxReplicas + 1)}, "exceed the supported maximum 1024"},
		{"negative live-set interval", []Option{WithLiveSetSampling(-1)}, "SampleLiveSet"},
		{"scenario out of range", []Option{WithReplicas(4), WithScenario(scn)}, "Scenario"},
		{"genesis without transactions", []Option{WithGenesis(map[string]int64{"a": 1})}, "Genesis"},
		{"trace and transactions", []Option{
			WithTrace(validTrace(t), 100),
			WithTransactions(Payment("a", "b", 1, 1)),
		}, "mutually exclusive"},
		{"total txs over script", []Option{
			WithTransactions(Payment("a", "b", 1, 1)), WithTotalTxs(5),
		}, "TotalTxs"},
		{"nil scripted transaction", []Option{
			WithTransactions(Payment("a", "b", 1, 1), nil),
		}, "Transactions"},
		{"zero-value scripted transaction", []Option{
			WithTransactions(&Tx{}),
		}, "Transactions"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := NewConfig(c.opts...).Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid configuration")
			}
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("error does not wrap ErrInvalidConfig: %v", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestValidateUnknownProtocolTyped(t *testing.T) {
	err := NewConfig(WithProtocol("NoSuch")).Validate()
	if !errors.Is(err, ErrUnknownProtocol) {
		t.Fatalf("want ErrUnknownProtocol, got %v", err)
	}
	if !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("want ErrInvalidConfig too, got %v", err)
	}
}

func TestValidateReportsEveryProblem(t *testing.T) {
	err := NewConfig(WithReplicas(-1), WithLoad(-5), WithProtocol("NoSuch")).Validate()
	if err == nil {
		t.Fatal("expected an error")
	}
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("error does not carry a *ValidationError: %v", err)
	}
	for _, frag := range []string{"Replicas", "LoadTPS", "unknown protocol"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("joined error %q misses %q", err, frag)
		}
	}
}

func TestValidateAcceptsPresetScenario(t *testing.T) {
	scn, err := scenariodsl.Preset("crash-recover", 10, 10*time.Second, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(WithReplicas(10), WithScenario(scn))
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWithTraceMalformedSurfacesFromValidate(t *testing.T) {
	err := NewConfig(WithTrace(strings.NewReader("not,a,valid,trace,line\n"), 100)).Validate()
	if err == nil {
		t.Fatal("malformed trace must fail Validate")
	}
	if !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("want ErrInvalidConfig, got %v", err)
	}
}

// TestScriptedTransactionsCopiedPerRun pins what a run may do to its
// scripted transactions: every clusterConfig hands out its own copies
// (carved from one []Transaction and one []Op), so stamping per-run fields,
// rewriting an op or appending to Ops reaches neither the caller's
// originals, nor another run's copies, nor the next transaction of the
// same run.
func TestScriptedTransactionsCopiedPerRun(t *testing.T) {
	txs := []*Tx{
		Payment("alice", "bob", 30, 1),
		MultiPayment("carol", []Transfer{{"carol", "bob", 1}, {"dave", "bob", 2}}, 2),
		ContractCall("alice", []string{"alice"}, 1, 3, SharedAssign("rec", 7)),
	}
	c := NewConfig(WithTransactions(txs...))
	first, second := lowered(t, c).Source, lowered(t, c).Source
	for i, orig := range txs {
		want := append([]types.Op(nil), orig.tx.Ops...)
		x, y := first.Next(), second.Next()
		if x == y || x == orig.tx || !reflect.DeepEqual(x.Ops, want) || !reflect.DeepEqual(y.Ops, want) || x.ID() != orig.tx.ID() {
			t.Fatalf("tx %d: a run's copy is shared or differs from the original", i)
		}
		x.SubmitNS, x.Ops[0].Amount = 99, 1234
		grown := append(x.Ops, types.Op{Key: "intruder"}, types.Op{Key: "intruder"}, types.Op{Key: "intruder"})
		grown[1].Amount = 1234
		if y.SubmitNS != 0 || !reflect.DeepEqual(y.Ops, want) || !reflect.DeepEqual(orig.tx.Ops, want) {
			t.Fatalf("tx %d: one run's writes reached another run's copy or the original", i)
		}
	}
	if info := txInfo(txs[1].tx); !reflect.DeepEqual(info.Payers, []string{"carol", "dave"}) || info.ID != txs[1].ID() {
		t.Fatalf("txInfo = %+v, want payers [carol dave] and ID %s", info, txs[1].ID())
	}
}
