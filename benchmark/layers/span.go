// Package layers times the program's layers in isolation, from outside:
// it pushes blocks of a workload's own transactions through each layer's
// public functions and records every call batch as a span. Spans inside
// the program are a later change; until then pbft and core, whose
// constructors need a simulator node, are budgeted in situ by the
// end-to-end run's stage means and CPU shares.
//
// The package's imports are pinned by a test: the public SDK and the
// internal packages probed here. A refactor that breaks one of them
// changes the benchmark first, in a change of its own.
package layers

import (
	"encoding/json"
	"os"
	"time"
)

// Span is one timed call batch. Spans of one block share its Block id;
// Parent is the id of the span that caused this one, 0 for a root.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Block   int    `json:"block"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the benchmark ends.
type Tracer struct {
	t0    time.Time
	spans []Span
}

// NewTracer starts an empty trace; span times count from now.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its id. Block is -1 for a span that
// covers no single block.
func (t *Tracer) Begin(name string, parent, block int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Block: block, StartNS: int64(time.Since(t.t0))})
	return id
}

// End closes span id and returns how long it was open.
func (t *Tracer) End(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNS = int64(time.Since(t.t0))
	return time.Duration(s.EndNS - s.StartNS)
}

// WriteFile writes the trace as JSON.
func (t *Tracer) WriteFile(path, workload string, seed int64) error {
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []Span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
