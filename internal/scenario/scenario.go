// Package scenario provides a declarative, composable timeline of mid-run
// fault and load events for cluster experiments. The paper's evaluation
// (Sec. VII) only exercises static fault shapes — a fixed straggler count
// or a crash set injected once — whereas real deployments see dynamic
// conditions: crashes that recover, partitions that heal, stragglers that
// come and go, load surges. A Scenario expresses such a timeline as pure
// data — events, their validation, presets and the phases they induce —
// and the cluster harness applies each event at its time on either
// backend, so any protocol runs any scenario without protocol-code changes.
//
// A scenario is built fluently and is immutable after Build:
//
//	s := scenario.New("demo").
//		StraggleAt(1*time.Second, 10, 4).
//		CrashAt(3*time.Second, 5, 6).
//		RecoverAt(6*time.Second, 5, 6).
//		Build()
//
// Determinism: a Scenario is plain data, cluster.Run schedules its events
// at fixed virtual times on the seeded simulator, and the preset generators
// draw victim choices from their own seeded RNG — so a given (scenario,
// seed, config) triple reproduces exactly, serial or parallel (the
// determinism regression tests in internal/experiments pin this down).
//
// Event times also delimit the per-phase measurement windows the harness
// reports (cluster.PhaseWindow), which is how the S1 figure family shows
// throughput collapsing and recovering around each event.
package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/errs"
)

// Kind identifies what an Event does to the running cluster.
type Kind int

// The event vocabulary. Crash/Recover act on replicas (protocol engines
// stop and resume, the network endpoint goes down and comes back);
// Partition/Heal act on links; Straggle rescales a node's egress delay and
// proposal pulse (scale 1 heals it); LoadSurge rescales the open-loop
// client submission rate. The last three are Byzantine attacks: from their
// event time on, the named replicas equivocate (conflicting proposals to
// disjoint halves), censor (drop every pending transaction from their
// proposals) or go leader-mute (swallow all leader-role traffic). Attacks
// are one-way switches — the view-change machinery, not a timeline event,
// ends them by rotating leadership away from the attacker.
const (
	Crash Kind = iota
	Recover
	Partition
	Heal
	Straggle
	LoadSurge
	Equivocate
	Censor
	MuteLeader
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Recover:
		return "recover"
	case Partition:
		return "partition"
	case Heal:
		return "heal"
	case Straggle:
		return "straggle"
	case LoadSurge:
		return "load-surge"
	case Equivocate:
		return "equivocate"
	case Censor:
		return "censor"
	case MuteLeader:
		return "mute-leader"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one timeline entry: at virtual time At, apply Kind to the run.
// Which auxiliary fields matter depends on Kind: Nodes for Crash, Recover
// and Straggle; Groups for Partition; Scale for Straggle (outgoing-delay
// and pulse multiplier) and LoadSurge (submission-rate multiplier).
type Event struct {
	At     time.Duration
	Kind   Kind
	Nodes  []int
	Groups [][]int
	Scale  float64
}

// String renders the event compactly, e.g. "3s crash nodes=[5 6]".
func (e Event) String() string {
	s := fmt.Sprintf("%v %s", e.At, e.Kind)
	switch e.Kind {
	case Crash, Recover, Equivocate, Censor, MuteLeader:
		s += fmt.Sprintf(" nodes=%v", e.Nodes)
	case Straggle:
		s += fmt.Sprintf(" nodes=%v x%g", e.Nodes, e.Scale)
	case Partition:
		s += fmt.Sprintf(" groups=%v", e.Groups)
	case LoadSurge:
		s += fmt.Sprintf(" x%g", e.Scale)
	}
	return s
}

// Scenario is a named, time-ordered fault/load timeline. Build sorts the
// events, and Validate refuses a Scenario written out of order; treat the
// struct as immutable afterwards — cluster configurations share Scenario
// pointers across parallel runs.
type Scenario struct {
	Name   string
	Events []Event
}

// Builder assembles a Scenario fluently; every method returns the builder
// for chaining and Build finalizes it.
type Builder struct {
	s Scenario
}

// New starts a scenario with the given name (used in run labels and the S1
// figure's rows).
func New(name string) *Builder {
	return &Builder{s: Scenario{Name: name}}
}

// CrashAt stops the given replicas at time at: their protocol engines halt
// and their network endpoints go down.
func (b *Builder) CrashAt(at time.Duration, nodes ...int) *Builder {
	b.s.Events = append(b.s.Events, Event{At: at, Kind: Crash, Nodes: nodes})
	return b
}

// RecoverAt restarts previously crashed replicas at time at. A recovered
// replica rejoins consensus voting; it fetches the blocks it missed while
// down only when the run enables state transfer (core.Params.StateTransfer).
func (b *Builder) RecoverAt(at time.Duration, nodes ...int) *Builder {
	b.s.Events = append(b.s.Events, Event{At: at, Kind: Recover, Nodes: nodes})
	return b
}

// PartitionAt cuts the network into the given groups at time at; nodes
// listed in no group form one additional implicit group. A message
// crossing the cut is dropped if the link is still cut when it would
// deliver — so messages in flight at the cut are lost unless a heal
// lands before their delivery time.
func (b *Builder) PartitionAt(at time.Duration, groups ...[]int) *Builder {
	b.s.Events = append(b.s.Events, Event{At: at, Kind: Partition, Groups: groups})
	return b
}

// HealAt removes every link cut at time at.
func (b *Builder) HealAt(at time.Duration) *Builder {
	b.s.Events = append(b.s.Events, Event{At: at, Kind: Heal})
	return b
}

// StraggleAt makes the given nodes stragglers from time at on: everything
// they send is slowed by scale and their proposal pulses dilate by scale
// (the paper's Sec. VII-A straggler model, but switchable mid-run).
// Scale 1 restores normal speed.
func (b *Builder) StraggleAt(at time.Duration, scale float64, nodes ...int) *Builder {
	b.s.Events = append(b.s.Events, Event{At: at, Kind: Straggle, Nodes: nodes, Scale: scale})
	return b
}

// LoadSurgeAt multiplies the open-loop client submission rate by mult from
// time at on. Mult 1 restores the configured rate; Validate bounds mult to
// (0, 100] so the surged submission interval stays a sane virtual-time
// step.
func (b *Builder) LoadSurgeAt(at time.Duration, mult float64) *Builder {
	b.s.Events = append(b.s.Events, Event{At: at, Kind: LoadSurge, Scale: mult})
	return b
}

// EquivocateAt turns the given replicas into equivocating leaders from time
// at on: each block they lead is proposed in two conflicting versions to
// disjoint replica halves. Neither half can reach a quorum, so the attacked
// instances stall until their honest members rotate the view.
func (b *Builder) EquivocateAt(at time.Duration, nodes ...int) *Builder {
	b.s.Events = append(b.s.Events, Event{At: at, Kind: Equivocate, Nodes: nodes})
	return b
}

// CensorAt turns the given replicas into censoring leaders from time at on:
// every pending transaction is dropped from their proposals (they keep
// proposing, so only the bucket-aging censorship detector — not the crash
// detector — can catch them and rotate the view).
func (b *Builder) CensorAt(at time.Duration, nodes ...int) *Builder {
	b.s.Events = append(b.s.Events, Event{At: at, Kind: Censor, Nodes: nodes})
	return b
}

// MuteLeaderAt silences the given replicas' leader roles from time at on:
// proposals and NewView messages are swallowed while votes continue, so
// every instance they lead undergoes a view change. Muting several
// replicas at one time is the view-change-storm attack.
func (b *Builder) MuteLeaderAt(at time.Duration, nodes ...int) *Builder {
	b.s.Events = append(b.s.Events, Event{At: at, Kind: MuteLeader, Nodes: nodes})
	return b
}

// Build finalizes the scenario: events are stably sorted by time (ties keep
// insertion order) and the result must not be mutated afterwards.
func (b *Builder) Build() *Scenario {
	s := b.s
	s.Events = append([]Event(nil), s.Events...)
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	return &s
}

// MaxStraggle bounds a straggle scale here and cluster.Config's
// StragglerFactor: five orders of magnitude past the paper's 10x. A larger
// scale multiplied into the proposal pulse overflows time.Duration to a
// negative period, and the pulse then re-arms at the same virtual instant
// forever, so time stops and a Halt is never polled.
const MaxStraggle = 1e6

// Validate checks the scenario against a cluster of n replicas: event
// times must be non-negative and in time order, node indices in [0, n),
// partition groups non-empty, disjoint and in range, straggle scales in
// (0, MaxStraggle], load multipliers in (0, 100], and Crash/Straggle/attack
// node lists non-empty. Every failure wraps errs.ErrInvalidConfig, the same
// sentinel the scenariodsl parser uses, so one errors.Is check covers a
// scenario however it was built. Both cluster backends validate before
// starting.
func (s *Scenario) Validate(n int) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: scenario %q: %s", errs.ErrInvalidConfig, s.Name, fmt.Sprintf(format, args...))
	}
	for i, e := range s.Events {
		if e.At < 0 {
			return fail("event %d (%s) has negative time", i, e)
		}
		if i > 0 && e.At < s.Events[i-1].At {
			return fail("event %d (%s) is out of time order: it precedes event %d", i, e, i-1)
		}
		switch e.Kind {
		case Crash, Recover, Straggle, Equivocate, Censor, MuteLeader:
			if len(e.Nodes) == 0 {
				return fail("event %d (%s) names no nodes", i, e)
			}
			for _, id := range e.Nodes {
				if id < 0 || id >= n {
					return fail("event %d (%s) targets node %d outside [0,%d)", i, e, id, n)
				}
			}
			// Both float rules are written the way round that NaN fails.
			if e.Kind == Straggle && !(e.Scale > 0 && e.Scale <= MaxStraggle) {
				return fail("event %d (%s) has a scale outside (0,%g]", i, e, MaxStraggle)
			}
		case Partition:
			// The same shape checks the DSL parser enforces: at least one
			// group, no empty groups. (A single non-empty group is a real
			// cut — the unlisted nodes form the implicit other side.)
			if len(e.Groups) == 0 {
				return fail("event %d (%s) names no groups", i, e)
			}
			seen := make(map[int]bool)
			for _, g := range e.Groups {
				if len(g) == 0 {
					return fail("event %d (%s) has an empty group", i, e)
				}
				for _, id := range g {
					if id < 0 || id >= n {
						return fail("event %d (%s) targets node %d outside [0,%d)", i, e, id, n)
					}
					if seen[id] {
						return fail("event %d (%s) lists node %d in two groups", i, e, id)
					}
					seen[id] = true
				}
			}
		case LoadSurge:
			if !(e.Scale > 0 && e.Scale <= 100) {
				return fail("event %d (%s) has load multiplier outside (0,100]", i, e)
			}
		case Heal:
			// no operands
		default:
			return fail("event %d has unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// Phase marks the start of one measurement window: scenarios divide a run
// into phases at their (distinct) event times, and cluster.Run reports
// metrics per phase.
type Phase struct {
	// Label names the window after the events starting it ("baseline" for
	// the first, else the kinds joined by '+', e.g. "crash+straggle").
	Label string
	// Start is the window's opening virtual time.
	Start time.Duration
}

// Phases returns the measurement windows the scenario induces: a "baseline"
// phase from time zero, then one phase per distinct event time, labeled by
// the kinds of the events firing there. Consecutive duplicate kinds at one
// time collapse into a single label component.
func (s *Scenario) Phases() []Phase {
	phases := []Phase{{Label: "baseline", Start: 0}}
	for i := 0; i < len(s.Events); {
		at := s.Events[i].At
		var kinds []string
		for ; i < len(s.Events) && s.Events[i].At == at; i++ {
			k := s.Events[i].Kind.String()
			if len(kinds) == 0 || kinds[len(kinds)-1] != k {
				kinds = append(kinds, k)
			}
		}
		if at == 0 {
			// Events at t=0 reshape the baseline rather than open a phase.
			phases[0].Label = strings.Join(kinds, "+")
			continue
		}
		phases = append(phases, Phase{Label: strings.Join(kinds, "+"), Start: at})
	}
	return phases
}
