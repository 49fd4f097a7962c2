package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Schema identifies the one format both committed artifacts are written
// in: a list of cells, each a grid id plus named metric columns.
const Schema = "orthrus-bench-perf/v3"

// Artifact is the document Run writes and Compare reads.
type Artifact struct {
	Schema string `json:"schema"`
	Cells  []Cell `json:"cells"`
}

// Cell is one measured grid cell. Which columns it carries depends on the
// grid and tier (see columns); a column absent from Metrics was not
// measured for this cell.
type Cell struct {
	ID      string             `json:"id"`
	Metrics map[string]float64 `json:"metrics"`
}

// The two grids, by the names Run and the SDK's RunBench take.
const gridScale, gridNet = "scale", "net"

// column describes one metric column: which grid's table shows it and
// how (head "" keeps it out of the table; values print divided by unit),
// and how the gate treats it. worse is the direction of a regression:
// +1 for costs (a rise beyond tol fails), -1 for rates (a fall beyond tol
// fails), 0 for context columns the gate ignores.
type column struct {
	name, grid, head string
	unit             float64
	worse            int
	tol              float64
}

// columns is the single table of metric columns, in artifact and table
// order, with the gate's tolerances. Timing columns and the rates derived
// from them vary with the host, so they get the wider bounds; the
// allocs_* columns, sim_events and the live-set census are properties of
// the code (see run for how each cell is made to reproduce them).
var columns = []column{
	{"ns_per_op", gridScale, "ms/op", 1e6, +1, 0.15},
	{"allocs_per_op", gridScale, "allocs/op", 1, +1, 0.10},
	{"bytes_per_op", gridScale, "bytes/op", 1, 0, 0},
	{"sim_events", gridScale, "", 1, 0, 0},
	{"sim_events_per_sec", gridScale, "sim-events/s", 1, -1, 0.15},
	{"tput_ktps", gridScale, "ktps", 1, 0, 0},
	// Soak tier: the cluster-wide retained-state census.
	{"peak_live_set", gridScale, "peak-live", 1, +1, 0.25},
	{"final_live_set", gridScale, "", 1, 0, 0},

	// Transport grid. A "message" is one delivered frame: a broadcast to
	// an n-replica cluster counts n, self-delivery included.
	{"msgs", gridNet, "msgs", 1, 0, 0},
	{"bytes", gridNet, "", 1, 0, 0},
	{"drops", gridNet, "drops", 1, 0, 0},
	{"msgs_per_sec", gridNet, "msgs/s", 1, -1, 0.15},
	{"mb_per_sec", gridNet, "MB/s", 1, 0, 0},
	{"allocs_per_msg", gridNet, "allocs/msg", 1, +1, 0.10},
	{"p50_latency_ns", gridNet, "p50-lat-ms", 1e6, 0, 0},
	{"p99_latency_ns", gridNet, "p99-lat-ms", 1e6, 0, 0},
}

// parse decodes and schema-checks an artifact.
func parse(data []byte) (*Artifact, error) {
	var art Artifact
	if err := json.Unmarshal(data, &art); err != nil {
		return nil, fmt.Errorf("perf: artifact: %w", err)
	}
	if art.Schema != Schema {
		return nil, fmt.Errorf("perf: artifact schema %q, want %q (regenerate it with orthrus-bench)", art.Schema, Schema)
	}
	return &art, nil
}

// fmtVal prints whole and large values without decimals, small ones with
// two.
func fmtVal(v float64) string {
	if v >= 1000 || v == float64(int64(v)) {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

// renderRow prints one row of grid's cell table: the heading when m is
// nil, otherwise a cell's values, with "-" for a column it does not carry.
func renderRow(w io.Writer, grid, id string, m map[string]float64) {
	fmt.Fprintf(w, "%-22s", id)
	for _, col := range columns {
		if col.grid != grid || col.head == "" {
			continue
		}
		s := "-"
		if v, ok := m[col.name]; ok {
			s = fmtVal(v / col.unit)
		} else if m == nil {
			s = col.head
		}
		fmt.Fprintf(w, " %13s", s)
	}
	fmt.Fprintln(w)
}

// Compare is the gate. It prints one delta row per gated column of every
// cell the two artifacts share (baseline -> fresh, relative change, the
// column's limit), flags cells present on only one side, and returns an
// error listing every violation: a column outside its tolerance, a gated
// column the baseline carries and the fresh cell lost, or a baseline cell
// missing from the fresh run. A fresh cell without a baseline is noted,
// not failed — it has nothing to regress against until the artifact that
// introduces it is committed.
func Compare(w io.Writer, base, fresh *Artifact) error {
	old := make(map[string]Cell, len(base.Cells))
	for _, c := range base.Cells {
		old[c.ID] = c
	}
	var violations []string
	// row prints one delta row; a non-empty violation marks it and is kept.
	row := func(id, col, baseline, fresh, delta, limit, violation string) {
		mark := ""
		if violation != "" {
			violations = append(violations, id+": "+violation)
			mark = "  FAIL"
		}
		fmt.Fprintf(w, "%-22s %-19s %14s %14s %8s %6s%s\n", id, col, baseline, fresh, delta, limit, mark)
	}
	row("cell", "column", "baseline", "fresh", "delta", "limit", "")
	for _, c := range fresh.Cells {
		o, ok := old[c.ID]
		if !ok {
			row(c.ID, "(new cell, no baseline)", "", "", "", "", "")
			continue
		}
		delete(old, c.ID)
		for _, col := range columns {
			b := o.Metrics[col.name]
			if col.worse == 0 || b == 0 {
				continue
			}
			limit := fmt.Sprintf("%+.0f%%", float64(col.worse)*col.tol*100)
			v, ok := c.Metrics[col.name]
			if !ok {
				row(c.ID, col.name, fmtVal(b), "-", "lost", limit, "lost its "+col.name+" column")
				continue
			}
			violation := ""
			if (v/b-1)*float64(col.worse) > col.tol {
				violation = fmt.Sprintf("%s %s is beyond %s of baseline %s", col.name, fmtVal(v), limit, fmtVal(b))
			}
			row(c.ID, col.name, fmtVal(b), fmtVal(v), fmt.Sprintf("%+.1f%%", (v/b-1)*100), limit, violation)
		}
	}
	for _, c := range base.Cells {
		if _, missing := old[c.ID]; missing {
			row(c.ID, "(baseline cell missing from this run)", "", "", "", "", "baseline cell missing from this run")
		}
	}
	if len(violations) == 0 {
		return nil
	}
	return fmt.Errorf("perf gate: %d violation(s) against the baseline:\n  %s", len(violations), strings.Join(violations, "\n  "))
}
