package scenario

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/simnet"
)

// TestBuildSortsAndValidates is the table-driven compiler test: each case
// assembles a timeline through the builder and checks the compiled event
// order and the Validate verdict for a 7-replica cluster.
func TestBuildSortsAndValidates(t *testing.T) {
	cases := []struct {
		name      string
		build     func() *Scenario
		wantOrder []Kind
		wantErr   bool
	}{
		{
			name: "sorted by time regardless of insertion order",
			build: func() *Scenario {
				return New("x").
					RecoverAt(4*time.Second, 5).
					CrashAt(2*time.Second, 5).
					StraggleAt(1*time.Second, 10, 3).
					Build()
			},
			wantOrder: []Kind{Straggle, Crash, Recover},
		},
		{
			name: "ties keep insertion order",
			build: func() *Scenario {
				return New("x").
					HealAt(3*time.Second).
					LoadSurgeAt(3*time.Second, 2).
					PartitionAt(3*time.Second, []int{1, 2}).
					Build()
			},
			wantOrder: []Kind{Heal, LoadSurge, Partition},
		},
		{
			name:      "crash without nodes rejected",
			build:     func() *Scenario { return &Scenario{Name: "x", Events: []Event{{Kind: Crash}}} },
			wantOrder: []Kind{Crash},
			wantErr:   true,
		},
		{
			name: "node out of range rejected",
			build: func() *Scenario {
				return New("x").CrashAt(time.Second, 7).Build() // n=7: valid ids are 0..6
			},
			wantOrder: []Kind{Crash},
			wantErr:   true,
		},
		{
			name: "negative time rejected",
			build: func() *Scenario {
				return &Scenario{Name: "x", Events: []Event{{At: -time.Second, Kind: Heal}}}
			},
			wantOrder: []Kind{Heal},
			wantErr:   true,
		},
		{
			name: "overlapping partition groups rejected",
			build: func() *Scenario {
				return New("x").PartitionAt(time.Second, []int{1, 2}, []int{2, 3}).Build()
			},
			wantOrder: []Kind{Partition},
			wantErr:   true,
		},
		{
			name:      "zero straggle scale rejected",
			build:     func() *Scenario { return New("x").StraggleAt(time.Second, 0, 1).Build() },
			wantOrder: []Kind{Straggle},
			wantErr:   true,
		},
		{
			// scenariodsl.Parse accepts the tokens NaN and Inf, and a rule
			// written "scale <= 0" lets both through.
			name:      "NaN straggle scale rejected",
			build:     func() *Scenario { return New("x").StraggleAt(time.Second, math.NaN(), 1).Build() },
			wantOrder: []Kind{Straggle},
			wantErr:   true,
		},
		{
			name:      "infinite straggle scale rejected",
			build:     func() *Scenario { return New("x").StraggleAt(time.Second, math.Inf(1), 1).Build() },
			wantOrder: []Kind{Straggle},
			wantErr:   true,
		},
		{
			name:      "NaN load multiplier rejected",
			build:     func() *Scenario { return New("x").LoadSurgeAt(time.Second, math.NaN()).Build() },
			wantOrder: []Kind{LoadSurge},
			wantErr:   true,
		},
		{
			name:      "zero load multiplier rejected",
			build:     func() *Scenario { return New("x").LoadSurgeAt(time.Second, 0).Build() },
			wantOrder: []Kind{LoadSurge},
			wantErr:   true,
		},
		{
			name:      "huge load multiplier rejected",
			build:     func() *Scenario { return New("x").LoadSurgeAt(time.Second, 101).Build() },
			wantOrder: []Kind{LoadSurge},
			wantErr:   true,
		},
		{
			// The builder/DSL validation-skew regression: the DSL always
			// rejected a partition with no groups; the builder must too.
			name:      "partition with zero groups rejected",
			build:     func() *Scenario { return New("x").PartitionAt(time.Second).Build() },
			wantOrder: []Kind{Partition},
			wantErr:   true,
		},
		{
			name: "partition with an empty group rejected",
			build: func() *Scenario {
				return New("x").PartitionAt(time.Second, []int{1, 2}, nil).Build()
			},
			wantOrder: []Kind{Partition},
			wantErr:   true,
		},
		{
			// A single non-empty group is a real cut: the unlisted replicas
			// form the implicit other side (the partition-heal preset
			// depends on this shape).
			name: "partition with one non-empty group accepted",
			build: func() *Scenario {
				return New("x").PartitionAt(time.Second, []int{1, 2}).Build()
			},
			wantOrder: []Kind{Partition},
		},
		{
			name: "attack verbs accepted",
			build: func() *Scenario {
				return New("x").
					EquivocateAt(1*time.Second, 1).
					CensorAt(2*time.Second, 2).
					MuteLeaderAt(3*time.Second, 3, 4).
					Build()
			},
			wantOrder: []Kind{Equivocate, Censor, MuteLeader},
		},
		{
			name:      "equivocate without nodes rejected",
			build:     func() *Scenario { return New("x").EquivocateAt(time.Second).Build() },
			wantOrder: []Kind{Equivocate},
			wantErr:   true,
		},
		{
			name:      "censor with out-of-range node rejected",
			build:     func() *Scenario { return New("x").CensorAt(time.Second, 7).Build() },
			wantOrder: []Kind{Censor},
			wantErr:   true,
		},
		{
			name:      "mute-leader without nodes rejected",
			build:     func() *Scenario { return New("x").MuteLeaderAt(time.Second).Build() },
			wantOrder: []Kind{MuteLeader},
			wantErr:   true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build()
			var order []Kind
			for _, e := range s.Events {
				order = append(order, e.Kind)
			}
			if !reflect.DeepEqual(order, tc.wantOrder) {
				t.Fatalf("event order %v, want %v", order, tc.wantOrder)
			}
			err := s.Validate(7)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate(7) = %v, wantErr=%v", err, tc.wantErr)
			}
			// Builder validation speaks the same typed error as the DSL.
			if err != nil && !errors.Is(err, errs.ErrInvalidConfig) {
				t.Fatalf("Validate(7) error %v does not wrap errs.ErrInvalidConfig", err)
			}
		})
	}
}

// TestApplyDispatchesInOrder applies a timeline to a simulator with
// recording hooks and checks every event fires, at its time, in order.
func TestApplyDispatchesInOrder(t *testing.T) {
	s := New("x").
		CrashAt(2*time.Second, 5, 6).
		StraggleAt(1*time.Second, 10, 3).
		PartitionAt(3*time.Second, []int{0, 1}).
		HealAt(4*time.Second).
		LoadSurgeAt(5*time.Second, 2).
		RecoverAt(6*time.Second, 5, 6).
		EquivocateAt(7*time.Second, 1).
		CensorAt(8*time.Second, 2).
		MuteLeaderAt(9*time.Second, 3, 4).
		Build()

	sim := simnet.New(1)
	var got []string
	log := func(format string, args ...any) {
		got = append(got, fmt.Sprintf("%v ", time.Duration(sim.Now()))+fmt.Sprintf(format, args...))
	}
	s.Apply(sim, Hooks{
		Crash:      func(id int) { log("crash %d", id) },
		Recover:    func(id int) { log("recover %d", id) },
		Straggle:   func(id int, scale float64) { log("straggle %d x%g", id, scale) },
		Partition:  func(groups [][]int) { log("partition %v", groups) },
		Heal:       func() { log("heal") },
		LoadFactor: func(mult float64) { log("load x%g", mult) },
		Equivocate: func(id int) { log("equivocate %d", id) },
		Censor:     func(id int) { log("censor %d", id) },
		MuteLeader: func(id int) { log("mute-leader %d", id) },
	})
	sim.RunAll(0)

	want := []string{
		"1s straggle 3 x10",
		"2s crash 5",
		"2s crash 6",
		"3s partition [[0 1]]",
		"4s heal",
		"5s load x2",
		"6s recover 5",
		"6s recover 6",
		"7s equivocate 1",
		"8s censor 2",
		"9s mute-leader 3",
		"9s mute-leader 4",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hook trace:\n%v\nwant:\n%v", got, want)
	}
}

// TestApplyNilHooks checks unset hooks make events no-ops instead of
// panicking.
func TestApplyNilHooks(t *testing.T) {
	s := New("x").CrashAt(time.Second, 1).HealAt(2 * time.Second).Build()
	sim := simnet.New(1)
	s.Apply(sim, Hooks{})
	sim.RunAll(0) // must not panic
}

func TestPhases(t *testing.T) {
	s := New("x").
		CrashAt(2*time.Second, 5).
		StraggleAt(2*time.Second, 10, 3).
		RecoverAt(4*time.Second, 5).
		Build()
	got := s.Phases()
	want := []Phase{
		{Label: "baseline", Start: 0},
		{Label: "crash+straggle", Start: 2 * time.Second},
		{Label: "recover", Start: 4 * time.Second},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Phases() = %v, want %v", got, want)
	}
}

// TestPhasesEventAtZero: events at t=0 relabel the baseline phase instead
// of opening an empty extra window.
func TestPhasesEventAtZero(t *testing.T) {
	s := New("x").StraggleAt(0, 10, 1).HealAt(3 * time.Second).Build()
	got := s.Phases()
	want := []Phase{
		{Label: "straggle", Start: 0},
		{Label: "heal", Start: 3 * time.Second},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Phases() = %v, want %v", got, want)
	}
}

// TestPresetsDeterministicAndValid: every preset validates against its
// cluster size and is reproducible from its seed.
func TestPresetsDeterministicAndValid(t *testing.T) {
	for _, name := range append(Names(), AttackNames()...) {
		for _, n := range []int{4, 7, 16} {
			a, err := Preset(name, n, 10*time.Second, 42)
			if err != nil {
				t.Fatalf("Preset(%q, %d): %v", name, n, err)
			}
			if err := a.Validate(n); err != nil {
				t.Fatalf("Preset(%q, %d) invalid: %v", name, n, err)
			}
			b, _ := Preset(name, n, 10*time.Second, 42)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("Preset(%q, %d) not deterministic:\n%v\nvs\n%v", name, n, a, b)
			}
			for _, e := range a.Events {
				for _, id := range e.Nodes {
					if id == 0 {
						t.Fatalf("Preset(%q, %d) targets the observer replica 0: %v", name, n, e)
					}
				}
			}
		}
	}
	if _, err := Preset("no-such", 7, time.Second, 1); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if _, err := Preset(CrashRecover, 3, time.Second, 1); err == nil {
		t.Fatal("n=3 accepted")
	}
}
