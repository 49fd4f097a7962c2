package cluster

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

// TestReplicaConfigSameOnEveryBackend pins the one cluster.Config ->
// core.Config assembly: whichever backend's collector builds the cluster,
// every replica-facing knob reaches every replica (ID, observer tracing and
// hooks aside). The real backend used to assemble its own copy, which
// dropped StateTransfer.
func TestReplicaConfigSameOnEveryBackend(t *testing.T) {
	const n = 7
	defaults := core.Config{N: n, F: 2, M: n, TxSize: 500} // zero knobs take core.NewReplica's defaults
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
		KernelSerial.String(): func(int, int) time.Duration { return time.Millisecond },
		KernelReal:            func(int, int) time.Duration { return 0 },
	}
	for _, row := range rows {
		for kernel, hop := range backends {
			cfg := Config{N: n, Protocol: core.OrthrusMode()}
			row.set(&cfg)
			c := newCollector(cfg.withDefaults(), kernel, hop)
			c.replicas(func(i int, got core.Config) *core.Replica {
				if got.Mode.Name != cfg.Protocol.Name || got.Genesis == nil || got.OnConfirm == nil {
					t.Errorf("%s/%s: replica %d misses its mode, genesis or confirm hook", row.name, kernel, i)
				}
				got.Mode, got.Genesis, got.OnConfirm, got.OnViewChange = core.Mode{}, nil, nil, nil
				want := defaults
				want.ID, want.TraceStages = i, i == 0
				row.want(&want)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: replica %d config\n got %+v\nwant %+v", row.name, kernel, i, got, want)
				}
				return nil
			})
		}
	}
}
