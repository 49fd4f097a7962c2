// Package report holds the benchmark's data formats: a named metric, the
// one-line JSON result a run prints last, the BENCHMARK.json contract, and
// the comparison of two sets of runs against the contract's bounds.
package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// Metric is one named measurement.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Value is a metric as the result line carries it.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the JSON object a run prints as its last line of output.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// NewResult packs metrics into a result line. A metric reported twice is
// a defect of the benchmark, not of the program, and is an error.
func NewResult(correct bool, attempted, failed int, ms []Metric) (Result, error) {
	r := Result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]Value, len(ms))}
	for _, m := range ms {
		if _, dup := r.Metrics[m.Name]; dup {
			return r, fmt.Errorf("metric %s reported twice", m.Name)
		}
		r.Metrics[m.Name] = Value{m.Value, m.Unit}
	}
	return r, nil
}

// Record is one run as a run-set file stores it: the result line plus what
// was run. A run-set file holds one Record per line.
type Record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`
	Result
}

// Append adds rec to the run-set file at path, creating it if need be.
func Append(path string, rec Record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadRecords loads a run-set file.
func ReadRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// Spec is BENCHMARK.json.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// MetricSpec declares one metric; Bound is set on end-to-end metrics only.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadSpec reads BENCHMARK.json from the current directory or, when the
// benchmark runs from its own directory, from the one above.
func LoadSpec() (*Spec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s Spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, firstErr
}
