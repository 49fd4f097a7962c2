package cluster

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/types"
)

// TestReplicaConfigSameOnEveryBackend pins the one cluster.Config ->
// core.Config assembly: whichever backend's collector builds the cluster,
// every replica-facing knob reaches every replica (ID and hooks aside), and
// orthrus-node, handed the same Params, builds the same configuration
// through the constructor it shares with the harness (core.NewConfig). The
// real backend used to assemble its own copy, which dropped StateTransfer.
func TestReplicaConfigSameOnEveryBackend(t *testing.T) {
	const n = 7
	defaults := core.Config{N: n, F: 2, M: n, Params: core.Params{}.WithDefaults()}
	rows := []struct {
		name string
		set  func(c *Config)
		want func(w *core.Config)
	}{
		{"defaults", func(*Config) {}, func(*core.Config) {}},
		{"state transfer",
			func(c *Config) { c.StateTransfer = true },
			func(w *core.Config) { w.StateTransfer = true }},
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

	res := c.finish(time.Second)
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
