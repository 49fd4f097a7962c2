package cluster

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/types"
)

// TestReplicaConfigSameOnEveryBackend pins the one cluster.Config ->
// core.Config assembly: whichever backend's collector builds the cluster,
// every replica-facing knob reaches every replica (ID and hooks aside), and
// orthrus-node, handed the same Params, builds the same configuration
// through the constructor it shares with the harness (core.NewConfig). The
// real backend used to assemble its own copy, which dropped a knob.
func TestReplicaConfigSameOnEveryBackend(t *testing.T) {
	const n = 7
	defaults := core.Config{N: n, F: 2, M: n, Params: core.Params{}.WithDefaults()}
	rows := []struct {
		name string
		set  func(c *Config)
		want func(w *core.Config)
	}{
		{"defaults", func(*Config) {}, func(*core.Config) {}},
		{"tuning",
			func(c *Config) {
				c.BatchSize, c.BatchTimeout, c.Window = 64, 20*time.Millisecond, 8
				c.ViewTimeout, c.TxSize, c.EpochLen, c.CensorshipBlocks = time.Second, 250, 4, 16
			},
			func(w *core.Config) {
				w.BatchSize, w.BatchTimeout, w.Window = 64, 20*time.Millisecond, 8
				w.ViewTimeout, w.TxSize, w.EpochLen, w.CensorshipBlocks = time.Second, 250, 4, 16
			}},
	}
	backends := map[string]func(int, int) time.Duration{
		"sim":  func(int, int) time.Duration { return time.Millisecond },
		"real": func(int, int) time.Duration { return 0 },
	}
	for _, row := range rows {
		for name, hop := range backends {
			cfg := Config{N: n, Protocol: core.OrthrusMode()}
			row.set(&cfg)
			c := newCollector(cfg.withDefaults(), backend{replyHop: hop})
			c.replicas(func(i int, got core.Config) *core.Replica {
				if got.Mode.Name != cfg.Protocol.Name || got.Genesis == nil || got.OnConfirm == nil {
					t.Errorf("%s/%s: replica %d misses its mode, genesis or confirm hook", row.name, name, i)
				}
				got.Mode, got.Genesis, got.OnConfirm, got.OnViewChange = core.Mode{}, nil, nil, nil
				want := defaults
				want.ID = i
				row.want(&want)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: replica %d config\n got %+v\nwant %+v", row.name, name, i, got, want)
				}
				if daemon := core.NewConfig(n, i, core.Mode{}, cfg.Params, nil); !reflect.DeepEqual(daemon, want) {
					t.Errorf("%s: orthrus-node replica %d config\n got %+v\nwant %+v", row.name, i, daemon, want)
				}
				return nil
			})
		}
	}
}

// TestObserverBreakdownFilters pins what the Fig. 6 breakdown counts: only
// replica 0's traces, only for transactions it received from the client (a
// transaction it met only inside a block has no Received stamp and
// contributes to no stage), and only the first trace per transaction — a
// late copy re-interned after checkpoint GC confirms again at the replica
// and must not be counted twice.
func TestObserverBreakdownFilters(t *testing.T) {
	const ms = types.Time(time.Millisecond)
	cfg := Config{N: 4, Protocol: core.OrthrusMode()}
	c := newCollector(cfg.withDefaults(), backend{replyHop: func(int, int) time.Duration { return 5 * time.Millisecond }})
	blockOnly, seen := c.gen.Next(), c.gen.Next()
	c.submit(blockOnly, 100*ms)
	c.submit(seen, 100*ms)

	c.confirm(0, blockOnly, true, core.StageTrace{Submit: 100 * ms, Proposed: 130 * ms, Delivered: 190 * ms, Confirmed: 290 * ms})
	first := core.StageTrace{Submit: 100 * ms, Received: 110 * ms, Proposed: 120 * ms, Delivered: 150 * ms, Confirmed: 160 * ms}
	c.confirm(1, seen, true, core.StageTrace{Submit: 100 * ms, Received: 101 * ms, Proposed: 120 * ms, Delivered: 121 * ms, Confirmed: 122 * ms})
	c.confirm(0, seen, true, first) // also the (f+1)-th reply
	again := first
	again.Received, again.Confirmed = 900*ms, 990*ms
	c.confirm(0, seen, true, again)

	res := c.finish()
	want := map[metrics.Stage]time.Duration{
		metrics.StageSend: 10 * time.Millisecond, metrics.StagePreprocess: 10 * time.Millisecond,
		metrics.StagePartial: 30 * time.Millisecond, metrics.StageGlobal: 10 * time.Millisecond,
		metrics.StageReply: 5 * time.Millisecond,
	}
	for s, w := range want {
		if got := res.Breakdown.Mean(s); got != w {
			t.Errorf("%v: mean %v, want %v (one trace counted, once)", s, got, w)
		}
	}
}

// TestCrashIsOneStepWhereTheReplicaRuns pins a crash and a recovery as one
// step where the replica runs. Over a backend that runs replica verbs
// later, as a real replica's event loop does, the victim's links stay up
// until the step that stops it runs, and stay down until the step that
// recovers it runs: a proposal the victim makes before either step is sent
// by a replica whose links match its state, never dropped at a link cut
// under a replica that still counts it sent.
func TestCrashIsOneStepWhereTheReplicaRuns(t *testing.T) {
	const n, victim = 4, 2
	sim := simnet.New(1)
	var later []func()
	runLater := func() {
		for _, fn := range later {
			fn()
		}
		later = nil
	}
	cfg := Config{N: n, Protocol: core.OrthrusMode()}
	c := newCollector(cfg.withDefaults(), backend{
		net:       simnet.NewNetwork(sim, n, simnet.NewFixed(time.Millisecond), nil),
		onReplica: func(_ int, fn func()) { later = append(later, fn) },
		replyHop:  func(int, int) time.Duration { return 0 },
	})
	c.replicas(func(i int, ccfg core.Config) *core.Replica {
		return core.NewReplica(ccfg, simnet.On(sim, i), c.net)
	})

	c.fire(scenario.Event{Kind: scenario.Crash, Nodes: []int{victim}})
	if c.net.Down(victim) {
		t.Fatal("the victim's links went down before its replica stopped")
	}
	runLater()
	if !c.net.Down(victim) {
		t.Fatal("the victim's links are up after its crash ran")
	}
	c.fire(scenario.Event{Kind: scenario.Recover, Nodes: []int{victim}})
	if !c.net.Down(victim) {
		t.Fatal("the victim's links came up before its replica recovered")
	}
	runLater()
	if c.net.Down(victim) {
		t.Fatal("the victim's links are down after its recovery ran")
	}
}
