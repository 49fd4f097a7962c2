package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

// TestCheckRules trips every run-shape rule once, alone, and pins the field
// it is reported under — the public SDK's name — and its reason.
func TestCheckRules(t *testing.T) {
	if bad := smallCfg(core.OrthrusMode()).Check(); len(bad) > 0 {
		t.Fatalf("valid config broke rules: %v", bad)
	}
	cases := []struct {
		field, reason string
		set           func(*Config)
	}{
		{"Replicas", "need at least 1 replica, got 0", func(c *Config) { c.N = 0 }},
		{"Replicas", "need at least 1 replica, got -3", func(c *Config) { c.N = -3 }},
		{"Net", "must be WAN or LAN, got Net(9)", func(c *Config) { c.Net = 9 }},
		{"Stragglers", "must be non-negative, got -1", func(c *Config) { c.Stragglers = -1 }},
		{"Stragglers", "9 stragglers exceed 4 replicas", func(c *Config) { c.Stragglers = 9 }},
		{"StragglerFactor", "must be in [0, 1e+06] (0 means the default 10x), got -2", func(c *Config) { c.StragglerFactor = -2 }},
		{"StragglerFactor", "got NaN", func(c *Config) { c.StragglerFactor = math.NaN() }},
		{"StragglerFactor", "got +Inf", func(c *Config) { c.StragglerFactor = math.Inf(1) }},
		{"StragglerFactor", "got 1e+300", func(c *Config) { c.StragglerFactor = 1e300 }},
		{"CrashFaults", "must be non-negative, got -1", func(c *Config) { c.CrashFaults = -1 }},
		{"CrashFaults", "crashing 4 of 4 replicas leaves no observer", func(c *Config) { c.CrashFaults = 4 }},
		{"CrashAt", "must be non-negative, got -1s", func(c *Config) { c.CrashAt = -time.Second }},
		{"ByzantineFaults", "must be non-negative, got -1", func(c *Config) { c.ByzantineFaults = -1 }},
		{"ByzantineFaults", "4 Byzantine replicas exceed 4-replica cluster", func(c *Config) { c.ByzantineFaults = 4 }},
		{"Duration", "must be non-negative, got -1s", func(c *Config) { c.Duration = -time.Second }},
		{"Warmup", "must be non-negative, got -1s", func(c *Config) { c.Warmup = -time.Second }},
		{"Drain", "must be non-negative, got -1s", func(c *Config) { c.Drain = -time.Second }},
		{"LoadTPS", "must be 0 or a finite positive rate whose interval 1s/rate fits a time.Duration, got -0.5", func(c *Config) { c.LoadTPS = -0.5 }},
		{"LoadTPS", "got NaN", func(c *Config) { c.LoadTPS = math.NaN() }},
		{"LoadTPS", "got +Inf", func(c *Config) { c.LoadTPS = math.Inf(1) }},
		{"LoadTPS", "got 1e-300", func(c *Config) { c.LoadTPS = 1e-300 }},
		{"LoadTPS", "got 1e-10", func(c *Config) { c.LoadTPS = 1e-10 }},
		{"TotalTxs", "must be non-negative, got -1", func(c *Config) { c.TotalTxs = -1 }},
		{"Accounts", "must be non-negative, got -1", func(c *Config) { c.Workload.Accounts = -1 }},
		{"PaymentFraction", "must be finite and at most 1, got 1.5", func(c *Config) { c.Workload.PaymentFraction = 1.5 }},
		{"PaymentFraction", "got NaN", func(c *Config) { c.Workload.PaymentFraction = math.NaN() }},
		{"PaymentFraction", "got -Inf", func(c *Config) { c.Workload.PaymentFraction = math.Inf(-1) }},
		{"SampleLiveSet", "must be non-negative, got -1s", func(c *Config) { c.SampleLiveSet = -time.Second }},
		{"Scenario", "targets node 5 outside [0,4)", func(c *Config) { c.Scenario = scenario.New("far").CrashAt(time.Second, 5).Build() }},
		{"Scenario", "has a scale outside (0,1e+06]", func(c *Config) { c.Scenario = scenario.New("slow").StraggleAt(time.Second, 1e300, 1).Build() }},
		{"Scenario", "event 1 (1s recover nodes=[3]) is out of time order", func(c *Config) {
			c.Scenario = &scenario.Scenario{Name: "unsorted", Events: []scenario.Event{
				{At: 2 * time.Second, Kind: scenario.Crash, Nodes: []int{3}},
				{At: time.Second, Kind: scenario.Recover, Nodes: []int{3}},
			}}
		}},
		// A surge's rate is LoadTPS × multiplier, 1000 standing in for an
		// unset LoadTPS; a product that underflows to 0 is not "no client".
		{"Scenario", "got 2e-300", func(c *Config) {
			c.LoadTPS, c.Scenario = 2, scenario.New("lull").LoadSurgeAt(time.Second, 1e-300).Build()
		}},
		{"Scenario", "got 1e-297", func(c *Config) {
			c.LoadTPS, c.Scenario = 0, scenario.New("lull").LoadSurgeAt(time.Second, 1e-300).Build()
		}},
		{"Scenario", "got 5e-324", func(c *Config) {
			c.LoadTPS, c.Scenario = 1e-9, scenario.New("lull").LoadSurgeAt(time.Second, 1e-320).Build()
		}},
	}
	for _, tc := range cases {
		cfg := smallCfg(core.OrthrusMode())
		tc.set(&cfg)
		bad := cfg.Check()
		if len(bad) != 1 || bad[0].Field != tc.field || !strings.Contains(bad[0].Reason, tc.reason) {
			t.Errorf("want one violation {%s, …%s…}, got %v", tc.field, tc.reason, bad)
		}
	}
}

// TestBackendsPanicWithTheRule: a hand-built Config that breaks a rule stops
// both backends with that rule's field and reason, not with whatever runtime
// error the bad value would have caused further in (the zero Config used to
// divide by zero, nine stragglers of four to index out of range).
func TestBackendsPanicWithTheRule(t *testing.T) {
	stragglers := smallCfg(core.OrthrusMode())
	stragglers.Stragglers = 9
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{}, "cluster: invalid Replicas: need at least 1 replica, got 0"},
		{stragglers, "cluster: invalid Stragglers: 9 stragglers exceed 4 replicas"},
	} {
		for name, run := range map[string]func(Config) *Result{"Run": Run, "RunReal": RunReal} {
			func() {
				defer func() {
					if got := fmt.Sprint(recover()); got != tc.want {
						t.Errorf("%s panicked with %q, want %q", name, got, tc.want)
					}
				}()
				run(tc.cfg)
			}()
		}
	}
}
