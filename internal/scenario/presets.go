package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/errs"
)

// The named presets of the S1 scenario suite, in figure order.
const (
	// CrashRecover crashes f replicas at 30% of the run and recovers them
	// at 60%.
	CrashRecover = "crash-recover"
	// RollingStragglers walks one 10x straggler across three consecutive
	// replicas, one per 20%-of-run window.
	RollingStragglers = "rolling-stragglers"
	// PartitionHeal isolates f replicas at 30% of the run and heals the cut
	// at 60%. The majority side keeps exactly a 2f+1 quorum.
	PartitionHeal = "partition-heal"
	// FlashCrowd triples the client submission rate between 35% and 65% of
	// the run.
	FlashCrowd = "flash-crowd"
)

// The named attack presets of the S2 robustness suite, in figure order.
// Each attack starts at 30% of the run and ends when the honest replicas
// rotate the victims out of their leader roles — the recovery is part of
// what the figure measures.
const (
	// Equivocation makes one replica an equivocating leader at 30% of the
	// run.
	Equivocation = "equivocation"
	// Censorship makes one replica a censoring leader at 30% of the run.
	Censorship = "censorship"
	// SilentLeader leader-mutes one replica at 30% of the run.
	SilentLeader = "silent-leader"
	// ViewChangeStorm leader-mutes f replicas at once at 30% of the run,
	// forcing view changes across many SB instances in one window.
	ViewChangeStorm = "view-change-storm"
)

// SoakChurn is the long-horizon churn preset behind the F-soak figure: a
// rotating victim crashes every tenth of the run and recovers half a cycle
// later, eight cycles total, so at any horizon some replica has recently
// crashed, caught up through state transfer, and rejoined. It is not part
// of the S1 suite (Names) — the soak harness selects it explicitly.
const SoakChurn = "soak-churn"

// Names returns the preset identifiers in S1 figure order.
func Names() []string {
	return []string{CrashRecover, RollingStragglers, PartitionHeal, FlashCrowd}
}

// AttackNames returns the Byzantine attack preset identifiers in S2 figure
// order.
func AttackNames() []string {
	return []string{Equivocation, Censorship, SilentLeader, ViewChangeStorm}
}

// Describe returns a one-line description of a preset timeline for CLI
// listings; unknown names describe as the empty string.
func Describe(name string) string {
	switch name {
	case CrashRecover:
		return "crash f replicas at 30% of the run, recover them at 60%"
	case RollingStragglers:
		return "walk one 10x straggler across three replicas, one per 20% window"
	case PartitionHeal:
		return "isolate f replicas at 30% of the run, heal the cut at 60%"
	case FlashCrowd:
		return "triple the client submission rate between 35% and 65% of the run"
	case Equivocation:
		return "one leader equivocates from 30% of the run until rotated out"
	case Censorship:
		return "one leader censors all transactions from 30% of the run until rotated out"
	case SilentLeader:
		return "one leader goes silent at 30% of the run, forcing a view change"
	case ViewChangeStorm:
		return "f leaders go silent at once at 30% of the run — a view-change storm"
	case SoakChurn:
		return "a rotating victim crashes every 10% of the run and recovers 5% (at most 30s) later, eight cycles"
	}
	return ""
}

// Preset builds the named scenario for an n-replica cluster whose
// submission window is dur long. Victim replicas are drawn from [1, n) —
// replica 0 stays alive as the metrics observer — using an RNG seeded from
// seed, so the same (name, n, dur, seed) always yields the same timeline.
func Preset(name string, n int, dur time.Duration, seed int64) (*Scenario, error) {
	if n < 4 {
		return nil, fmt.Errorf("%w: scenario: preset %q needs n >= 4, got %d", errs.ErrInvalidConfig, name, n)
	}
	f := (n - 1) / 3
	rng := rand.New(rand.NewSource(seed))
	frac := func(p float64) time.Duration { return time.Duration(float64(dur) * p) }
	switch name {
	case CrashRecover:
		victims := pickVictims(rng, n, f)
		return New(name).
			CrashAt(frac(0.3), victims...).
			RecoverAt(frac(0.6), victims...).
			Build(), nil
	case RollingStragglers:
		start := 1 + rng.Intn(n-1)
		b := New(name)
		for i := 0; i < 3; i++ {
			v := 1 + (start-1+i)%(n-1) // walk within [1, n)
			b.StraggleAt(frac(0.2+0.2*float64(i)), 10, v)
			b.StraggleAt(frac(0.2+0.2*float64(i+1)), 1, v)
		}
		return b.Build(), nil
	case PartitionHeal:
		minority := pickVictims(rng, n, f)
		return New(name).
			PartitionAt(frac(0.3), minority). // the rest form the implicit majority
			HealAt(frac(0.6)).
			Build(), nil
	case FlashCrowd:
		return New(name).
			LoadSurgeAt(frac(0.35), 3).
			LoadSurgeAt(frac(0.65), 1).
			Build(), nil
	case Equivocation:
		return New(name).
			EquivocateAt(frac(0.3), pickVictims(rng, n, 1)...).
			Build(), nil
	case Censorship:
		return New(name).
			CensorAt(frac(0.3), pickVictims(rng, n, 1)...).
			Build(), nil
	case SilentLeader:
		return New(name).
			MuteLeaderAt(frac(0.3), pickVictims(rng, n, 1)...).
			Build(), nil
	case ViewChangeStorm:
		return New(name).
			MuteLeaderAt(frac(0.3), pickVictims(rng, n, f)...).
			Build(), nil
	case SoakChurn:
		// Eight crash/recover cycles; with n-1 candidate victims the
		// rotation wraps, but a wrapped victim has long since rejoined. The
		// outage is half a cycle but capped at 30 s of virtual time: block-
		// replay catch-up can only repair gaps its peers' logs still
		// cover (one epoch of hysteresis past the stable checkpoint floor,
		// i.e. 2 x EpochLen x BatchTimeout under the soak configuration), so
		// on hour-long runs an uncapped 5% outage would outlive the
		// logs and leave the victim a permanent laggard — snapshot
		// installation below the GC floor is explicitly out of scope.
		perm := rng.Perm(n - 1)
		down := frac(0.05)
		if down > 30*time.Second {
			down = 30 * time.Second
		}
		b := New(name)
		for i := 0; i < 8; i++ {
			v := perm[i%(n-1)] + 1
			b.CrashAt(frac(0.1+0.1*float64(i)), v)
			b.RecoverAt(frac(0.1+0.1*float64(i))+down, v)
		}
		return b.Build(), nil
	default:
		return nil, fmt.Errorf("%w: scenario: unknown preset %q (want one of %v or %v)",
			errs.ErrInvalidConfig, name, Names(), AttackNames())
	}
}

// pickVictims draws k distinct replicas from [1, n), ascending.
func pickVictims(rng *rand.Rand, n, k int) []int {
	perm := rng.Perm(n - 1)
	victims := make([]int, k)
	for i := 0; i < k; i++ {
		victims[i] = perm[i] + 1
	}
	// Insertion sort keeps the timeline readable and the order stable.
	for i := 1; i < len(victims); i++ {
		for j := i; j > 0 && victims[j] < victims[j-1]; j-- {
			victims[j], victims[j-1] = victims[j-1], victims[j]
		}
	}
	return victims
}
