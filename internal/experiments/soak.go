package experiments

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// SoakSample is one cluster-wide retained-state census of a soak run,
// mirroring cluster.LiveSetSample in figure units.
type SoakSample struct {
	AtS      float64 `json:"at_s"`
	Events   int     `json:"events"`
	Trackers int     `json:"trackers"`
	Slots    int     `json:"slots"`
	GlogQ    int     `json:"glog_q"`
	Archive  int     `json:"archive"`
	Total    int     `json:"total"`
}

// SoakResult is one soak cell: run-level numbers plus the live-set census
// profile. The bounded-memory acceptance signal is the second-half peak
// staying level with the first-half peak (after warmup, a leak shows as
// PeakSecondHalf pulling away; checkpoint GC keeps the profile flat).
type SoakResult struct {
	Protocol       string       `json:"protocol"`
	N              int          `json:"n"`
	VirtualS       float64      `json:"virtual_s"`
	TputKTPS       float64      `json:"tput_ktps"`
	Confirmed      int          `json:"confirmed"`
	ViewChanges    int          `json:"view_changes"`
	CatchUpBlocks  uint64       `json:"catchup_blocks"`
	PeakLiveSet    int          `json:"peak_live_set"`
	FinalLiveSet   int          `json:"final_live_set"`
	PeakFirstHalf  int          `json:"peak_first_half"`
	PeakSecondHalf int          `json:"peak_second_half"`
	Samples        []SoakSample `json:"samples"`
}

// SoakConfig is the soak cell at the given scale: Orthrus on a WAN under
// message-level PBFT, an hour of virtual time at
// full scale over n = 100 replicas (a quarter hour over n = 25 below half
// scale), continuous churn from the soak-churn scenario preset, and a
// live-set census every 64th of the run. The load and batching knobs are
// damped the same way as the F-scale giants so one virtual hour stays
// tractable; the figure measures retained state, not peak throughput.
func SoakConfig(scale float64) cluster.Config {
	n := 25
	dur := time.Duration(float64(time.Hour) * scale)
	if scale >= 0.5 {
		n = 100
	}
	if dur < 240*time.Second {
		dur = 240 * time.Second
	}
	cfg := cluster.Config{
		N:             n,
		Protocol:      core.OrthrusMode(),
		Net:           cluster.WAN,
		SampleLiveSet: dur / 64,
		LoadTPS:       100,
		Duration:      dur,
		Warmup:        dur / 10,
		Drain:         60 * time.Second,
		Params: core.Params{
			BatchSize:    4096,
			BatchTimeout: 10 * time.Second,
			EpochLen:     4,
			ViewTimeout:  60 * time.Second,
		},
		Workload: workload.Config{Seed: 42},
		Seed:     42,
	}
	scn, err := scenario.Preset(scenario.SoakChurn, cfg.N, cfg.Duration, cfg.Seed)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	cfg.Scenario = scn
	return cfg
}

// soakPlan is the long-horizon soak figure: one churned cell whose live-set
// census must stay flat after warmup. There is no grid to parallelize over.
func soakPlan(scale float64, _ []string) plan {
	cfg := SoakConfig(scale)
	return plan{
		sim: []cluster.Config{cfg},
		assemble: func(f *FigureResult, res, _ []*cluster.Result) {
			f.Soak = []SoakResult{toSoak(res[0], cfg)}
		},
	}
}

func toSoak(res *cluster.Result, cfg cluster.Config) SoakResult {
	out := SoakResult{
		Protocol:      res.Protocol,
		N:             res.N,
		VirtualS:      (cfg.Duration + cfg.Drain).Seconds(),
		TputKTPS:      res.ThroughputTPS / 1000,
		Confirmed:     res.Confirmed,
		ViewChanges:   res.ViewChanges,
		CatchUpBlocks: res.StateTransferApplied,
		PeakLiveSet:   res.LiveSetPeak,
	}
	half := (cfg.Duration + cfg.Drain) / 2
	for _, s := range res.LiveSetSamples {
		out.Samples = append(out.Samples, SoakSample{
			AtS:      s.At.Seconds(),
			Events:   s.Events,
			Trackers: s.Trackers,
			Slots:    s.Slots,
			GlogQ:    s.GlogQ,
			Archive:  s.Archive,
			Total:    s.Total,
		})
		out.FinalLiveSet = s.Total
		if s.At <= half {
			if s.Total > out.PeakFirstHalf {
				out.PeakFirstHalf = s.Total
			}
		} else if s.Total > out.PeakSecondHalf {
			out.PeakSecondHalf = s.Total
		}
	}
	return out
}
