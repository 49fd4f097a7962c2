// Package scenariodsl is the public surface of the declarative fault/load
// scenario engine: named, seeded timelines of mid-run events — crashes
// that recover, partitions that heal, stragglers that come and go, load
// surges — built fluently and passed to a run with orthrus.WithScenario.
//
//	scn := scenariodsl.New("demo").
//		StraggleAt(1*time.Second, 10, 4).
//		CrashAt(3*time.Second, 5, 6).
//		RecoverAt(6*time.Second, 5, 6).
//		Build()
//
//	res, err := orthrus.Run(ctx,
//		orthrus.WithReplicas(7),
//		orthrus.WithScenario(scn),
//	)
//
// A Scenario is pure data: its events are compiled onto the seeded
// discrete-event simulator, so a given (scenario, seed, config) triple
// reproduces exactly, serial or parallel. Event times also delimit the
// per-phase measurement windows a run reports (orthrus.Result.Phases and
// the Observer's OnPhase callbacks).
//
// The types are aliases of the internal scenario engine's, so scenarios
// built here flow through the whole toolchain — cluster runs, the S1
// figure suite, and both CLIs — unchanged.
package scenariodsl

import (
	"time"

	"repro/internal/scenario"
)

// Scenario is a named, time-ordered fault/load timeline, immutable after
// Build. See New for construction and Preset for the named presets.
type Scenario = scenario.Scenario

// Builder assembles a Scenario fluently: CrashAt, RecoverAt, PartitionAt,
// HealAt, StraggleAt, LoadSurgeAt, EquivocateAt, CensorAt and MuteLeaderAt
// append events, Build finalizes.
type Builder = scenario.Builder

// Event is one timeline entry; its String renders compactly, e.g.
// "3s crash nodes=[5 6]".
type Event = scenario.Event

// Kind identifies what an Event does to the running cluster.
type Kind = scenario.Kind

// The event vocabulary: Crash/Recover act on replicas, Partition/Heal on
// links, Straggle rescales a node's egress delay and proposal pulse, and
// LoadSurge rescales the open-loop client submission rate. The last three
// are one-way Byzantine attacks — equivocating, censoring and silent
// leaders — ended by the protocol's own view changes, not by a timeline
// event.
const (
	Crash      = scenario.Crash
	Recover    = scenario.Recover
	Partition  = scenario.Partition
	Heal       = scenario.Heal
	Straggle   = scenario.Straggle
	LoadSurge  = scenario.LoadSurge
	Equivocate = scenario.Equivocate
	Censor     = scenario.Censor
	MuteLeader = scenario.MuteLeader
)

// New starts building a scenario with the given name; the name appears in
// run labels and the S1 figure's rows.
func New(name string) *Builder { return scenario.New(name) }

// Preset builds one of the named preset timelines (see Presets) for an
// n-replica cluster whose submission window is dur long. Victim replicas
// are drawn from an RNG seeded from seed — replica 0 always survives as
// the metrics observer — so the same (name, n, dur, seed) always yields
// the same timeline. Unknown names error, listing the presets.
func Preset(name string, n int, dur time.Duration, seed int64) (*Scenario, error) {
	return scenario.Preset(name, n, dur, seed)
}

// Presets returns the preset scenario names in S1 figure order:
// crash-recover, rolling-stragglers, partition-heal, flash-crowd.
func Presets() []string { return scenario.Names() }

// SoakChurnPreset is the long-horizon churn preset behind the F-soak
// figure: a rotating victim crashes every tenth of the run and recovers
// half a cycle later, eight cycles total. It builds through Preset like
// the S1 presets but is not part of Presets() — the soak harness (and
// anyone wanting continuous churn) selects it explicitly. Recovered
// replicas catch up from their peers' delivered-block logs.
const SoakChurnPreset = scenario.SoakChurn

// AttackPresets returns the Byzantine attack preset names in S2 figure
// order: equivocation, censorship, silent-leader, view-change-storm. They
// build through Preset exactly like the S1 presets.
func AttackPresets() []string { return scenario.AttackNames() }

// Describe returns a one-line description of a preset for listings;
// unknown names describe as the empty string.
func Describe(name string) string { return scenario.Describe(name) }
