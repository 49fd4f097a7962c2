package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/scenario"
)

// TestParams pins the one defaulting function and the one range check: the
// seven default values, that set knobs are
// kept, that resolving twice changes nothing, and that exactly the negative
// fields and those past their bounds are reported, by name.
func TestParams(t *testing.T) {
	defaults := Params{
		BatchSize: 4096, BatchTimeout: 100 * time.Millisecond, Window: 4, EpochLen: 32,
		ViewTimeout: 10 * time.Second, TxSize: 500, CensorshipBlocks: 64,
	}
	custom := Params{
		BatchSize: 64, BatchTimeout: 20 * time.Millisecond, Window: 8, EpochLen: 4,
		ViewTimeout: time.Second, TxSize: 250, CensorshipBlocks: 16,
	}
	for _, row := range []struct {
		name     string
		in, want Params
		bad      []string // fields Check reports
	}{
		{"zero", Params{}, defaults, nil},
		{"defaults spelled out", defaults, defaults, nil},
		{"every knob set", custom, custom, nil},
		{"one knob set", Params{EpochLen: 4}, Params{
			BatchSize: 4096, BatchTimeout: 100 * time.Millisecond, Window: 4, EpochLen: 4,
			ViewTimeout: 10 * time.Second, TxSize: 500, CensorshipBlocks: 64,
		}, nil},
		{"negatives", Params{BatchSize: -1, BatchTimeout: -time.Second, Window: -1, ViewTimeout: -time.Second, TxSize: -1},
			defaults, []string{"BatchSize", "BatchTimeout", "Window", "ViewTimeout", "TxSize"}},
		// Past these bounds a run's clock wraps: a straggled pulse or a
		// timeout deadline goes negative, or no instance may propose.
		{"past the bounds", Params{BatchTimeout: 3 * time.Hour, EpochLen: 1 << 62, ViewTimeout: math.MaxInt64}, Params{
			BatchSize: 4096, BatchTimeout: 3 * time.Hour, Window: 4, EpochLen: 1 << 62,
			ViewTimeout: math.MaxInt64, TxSize: 500, CensorshipBlocks: 64,
		}, []string{"BatchTimeout", "EpochLen", "ViewTimeout"}},
		{"at the bounds", Params{BatchTimeout: MaxSpan / scenario.MaxStraggle, EpochLen: 1<<62 - 1, ViewTimeout: MaxSpan}, Params{
			BatchSize: 4096, BatchTimeout: MaxSpan / scenario.MaxStraggle, Window: 4, EpochLen: 1<<62 - 1,
			ViewTimeout: MaxSpan, TxSize: 500, CensorshipBlocks: 64,
		}, nil},
		{"one negative", Params{BatchSize: 64, Window: -2}, Params{
			BatchSize: 64, BatchTimeout: 100 * time.Millisecond, Window: 4, EpochLen: 32,
			ViewTimeout: 10 * time.Second, TxSize: 500, CensorshipBlocks: 64,
		}, []string{"Window"}},
	} {
		got := row.in.WithDefaults()
		if got != row.want {
			t.Errorf("%s: WithDefaults\n got %+v\nwant %+v", row.name, got, row.want)
		}
		if again := got.WithDefaults(); again != got {
			t.Errorf("%s: WithDefaults is not idempotent: %+v then %+v", row.name, got, again)
		}
		var bad []string
		for _, v := range row.in.Check() {
			bad = append(bad, v.Field)
			if v.Reason == "" {
				t.Errorf("%s: %s reported without a reason", row.name, v.Field)
			}
		}
		if !reflect.DeepEqual(bad, row.bad) {
			t.Errorf("%s: Check reports %v, want %v", row.name, bad, row.bad)
		}
	}
}
