package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// The paper's qualitative results (Sec. VII) as a table of claims over the
// committed figure artifact. The gate reads the artifact and simulates
// nothing. CI regenerates the artifact and diffs it against the committed
// file before this runs, so the claims hold on every regeneration.
// EXPERIMENTS.md ("Paper claims") lists the same table.

// artifactPath is the committed output of
// orthrus-bench -fig all,F-soak -scale 0.05 -json.
const artifactPath = "../../docs/figures/scale-0.05.json"

// artifact is the orthrus-bench/v2 document the claims read.
type artifact struct {
	Schema  string         `json:"schema"`
	Scale   float64        `json:"scale"`
	Figures []FigureResult `json:"figures"`
}

// claim is one result of the paper: the figure panel it is about, the rows
// it reads, the section that shows it, and the check over the artifact.
type claim struct {
	figure, rows, section string
	check                 func(t *testing.T, a *artifact)
}

// figure returns the artifact's figure id.
func (a *artifact) figure(t *testing.T, id string) FigureResult {
	t.Helper()
	for _, f := range a.Figures {
		if f.Figure == id {
			return f
		}
	}
	t.Fatalf("artifact has no figure %q", id)
	return FigureResult{}
}

// table returns the rows of figure id's table whose title starts with
// prefix.
func (a *artifact) table(t *testing.T, id, prefix string) []Row {
	t.Helper()
	for _, tab := range a.figure(t, id).Tables {
		if strings.HasPrefix(tab.Title, prefix) {
			return tab.Rows
		}
	}
	t.Fatalf("figure %s has no table %q", id, prefix)
	return nil
}

// cell returns protocol's row at n.
func cell(t *testing.T, rows []Row, protocol string, n int) Row {
	t.Helper()
	for _, r := range rows {
		if r.Protocol == protocol && r.N == n {
			return r
		}
	}
	t.Fatalf("no %s row at n = %d", protocol, n)
	return Row{}
}

// replicaAxis lists the distinct n of rows, in order.
func replicaAxis(rows []Row) []int {
	var ns []int
	for _, r := range rows {
		if len(ns) == 0 || ns[len(ns)-1] != r.N {
			ns = append(ns, r.N)
		}
	}
	return ns
}

// orthrusAhead checks that at every n Orthrus has strictly lower mean
// latency than each rival and, when tput is set, strictly higher throughput.
func orthrusAhead(t *testing.T, rows []Row, tput bool, rivals ...string) {
	for _, n := range replicaAxis(rows) {
		o := cell(t, rows, "Orthrus", n)
		for _, rival := range rivals {
			r := cell(t, rows, rival, n)
			if o.LatencyS >= r.LatencyS {
				t.Errorf("n = %d: Orthrus latency %.3f s, %s %.3f s", n, o.LatencyS, rival, r.LatencyS)
			}
			if tput && o.TputKTPS <= r.TputKTPS {
				t.Errorf("n = %d: Orthrus throughput %.3f ktps, %s %.3f", n, o.TputKTPS, rival, r.TputKTPS)
			}
		}
	}
}

// dqbftAhead is the known divergence from the paper in the straggler
// panels: the cells where DQBFT beats Orthrus at scale 0.05, each as
// "panel/n/metric". Whether the DQBFT baseline is the paper's DQBFT is
// open (ROADMAP.md, "Baselines that are what their names say"); until that
// is settled the claim fails when the set changes in either direction, so
// a fix or a regression has to update this record.
var dqbftAhead = map[string]bool{
	"3c/8/tput": true, "3c/16/tput": true, "3c/16/latency": true,
	"4c/8/tput": true, "4c/16/tput": true, "4c/8/latency": true, "4c/16/latency": true,
}

// checkDQBFTDivergence compares the panel's DQBFT-ahead cells with the
// record.
func checkDQBFTDivergence(t *testing.T, panel string, rows []Row) {
	for _, n := range replicaAxis(rows) {
		o, d := cell(t, rows, "Orthrus", n), cell(t, rows, "DQBFT", n)
		for _, m := range []struct {
			metric string
			ahead  bool
		}{{"tput", d.TputKTPS > o.TputKTPS}, {"latency", d.LatencyS < o.LatencyS}} {
			key := fmt.Sprintf("%s/%d/%s", panel, n, m.metric)
			if m.ahead != dqbftAhead[key] {
				t.Errorf("%s: DQBFT ahead = %v, recorded %v (Orthrus %.3f ktps %.3f s, DQBFT %.3f ktps %.3f s)",
					key, m.ahead, dqbftAhead[key], o.TputKTPS, o.LatencyS, d.TputKTPS, d.LatencyS)
			}
		}
	}
}

var claims = []claim{
	{"3a-3b", "Fig 3a/3b rows, every protocol at each n", "Sec. VII, Fig. 3: Orthrus has the lowest latency without stragglers",
		func(t *testing.T, a *artifact) {
			orthrusAhead(t, a.table(t, "3", "Fig 3a/3b"), false, "ISS", "DQBFT", "Ladon")
		}},
	{"3c-3d", "Fig 3c/3d rows of Orthrus, ISS and Ladon at each n", "Sec. VII, Fig. 3: with a straggler Orthrus leads on latency and throughput",
		func(t *testing.T, a *artifact) {
			orthrusAhead(t, a.table(t, "3", "Fig 3c/3d"), true, "ISS", "Ladon")
		}},
	{"4c-4d", "Fig 4c/4d rows of Orthrus, ISS and Ladon at each n", "Sec. VII, Fig. 4: the same on a LAN",
		func(t *testing.T, a *artifact) {
			orthrusAhead(t, a.table(t, "4", "Fig 4c/4d"), true, "ISS", "Ladon")
		}},
	{"3c-4c-DQBFT", "Fig 3c/3d and 4c/4d rows of Orthrus and DQBFT at each n", "Sec. VII, Figs. 3-4: known divergence, recorded in dqbftAhead",
		func(t *testing.T, a *artifact) {
			checkDQBFTDivergence(t, "3c", a.table(t, "3", "Fig 3c/3d"))
			checkDQBFTDivergence(t, "4c", a.table(t, "4", "Fig 4c/4d"))
		}},
	{"5", "Fig 5 straggler rows, in payment-share order", "Sec. VII, Fig. 5: more payments, lower latency and higher throughput under a straggler",
		func(t *testing.T, a *artifact) {
			rows := a.table(t, "5", "Fig 5: payment proportion sweep, one straggler")
			for i := 1; i < len(rows); i++ {
				p, r := rows[i-1], rows[i]
				if r.LatencyS >= p.LatencyS || r.TputKTPS <= p.TputKTPS {
					t.Errorf("%s -> %s: latency %.3f -> %.3f s, throughput %.3f -> %.3f ktps",
						p.Protocol, r.Protocol, p.LatencyS, r.LatencyS, p.TputKTPS, r.TputKTPS)
				}
			}
		}},
	{"6", "Fig 6 global-ordering stage of Orthrus and ISS", "Sec. VII, Fig. 6: Orthrus's global ordering is a fraction of ISS's",
		func(t *testing.T, a *artifact) {
			stage := map[string]time.Duration{}
			for _, b := range a.figure(t, "6").Breakdowns {
				stage[b.Protocol] = b.Stages["Global ordering"]
			}
			if o, iss := stage["Orthrus"], stage["ISS"]; o <= 0 || 2*o > iss {
				t.Errorf("global ordering: Orthrus %v, ISS %v; want Orthrus at most half", o, iss)
			}
		}},
	{"7", "Fig 7 series f = 1 and f = 5, bins from the crash to the end of submission", "Sec. VII, Fig. 7: a view change, and service throughout",
		func(t *testing.T, a *artifact) {
			for _, s := range a.figure(t, "7").Series {
				if s.Faults == 0 {
					continue
				}
				if s.ViewChange < 1 {
					t.Errorf("f = %d: no view change", s.Faults)
				}
				job := faultJob(s.Faults, a.Scale)
				for i, at := range s.TimeS {
					if start := time.Duration(at * float64(time.Second)); start >= job.CrashAt && start < job.Duration && s.TputKTPS[i] <= 0 {
						t.Errorf("f = %d: bin at %.1f s confirms nothing", s.Faults, at)
					}
				}
			}
		}},
	{"8", "Fig 8 rows, in Byzantine-count order", "Sec. VII-E, Fig. 8: throughput falls with each undetectable fault and stays above zero",
		func(t *testing.T, a *artifact) {
			rows := a.table(t, "8", "Fig 8")
			for i, r := range rows {
				if r.TputKTPS <= 0 {
					t.Errorf("%s: throughput %.3f ktps", r.Protocol, r.TputKTPS)
				}
				if i > 0 && r.TputKTPS >= rows[i-1].TputKTPS {
					t.Errorf("%s -> %s: throughput %.3f -> %.3f ktps", rows[i-1].Protocol, r.Protocol, rows[i-1].TputKTPS, r.TputKTPS)
				}
			}
		}},
}

// TestPaperClaims checks every claim over the committed artifact, each as
// its own subtest so one run reports every claim that fails.
func TestPaperClaims(t *testing.T) {
	raw, err := os.ReadFile(artifactPath)
	if err != nil {
		t.Fatal(err)
	}
	var a artifact
	if err := json.Unmarshal(raw, &a); err != nil {
		t.Fatal(err)
	}
	if a.Schema != "orthrus-bench/v2" || a.Scale != 0.05 {
		t.Fatalf("artifact schema %q at scale %v; the claims read orthrus-bench/v2 at 0.05", a.Schema, a.Scale)
	}
	for _, c := range claims {
		t.Run("Fig"+c.figure, func(t *testing.T) {
			c.check(t, &a)
			if t.Failed() {
				t.Logf("claim over %s (%s)", c.rows, c.section)
			}
		})
	}
}
