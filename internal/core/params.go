package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/ledger"
	"repro/internal/scenario"
)

// Params are the engine knobs every replica of a cluster must run with the
// same values. This is their one declaration below the public SDK: Config
// and the harness's cluster.Config embed it, the daemon binds its flags to
// it, and WithDefaults and Check are the only default values and range
// rules. A zero field means "the default".
type Params struct {
	BatchSize    int           // max transactions per block
	BatchTimeout time.Duration // proposal pulse interval
	Window       int           // pipelined proposals per instance
	EpochLen     uint64        // blocks per instance per epoch
	ViewTimeout  time.Duration // PBFT view-change timeout
	// TxSize is a transaction's modeled size in bytes. Only the simulated
	// network charges it; real transports carry real encodings (≈ 50 B now).
	TxSize int

	// CensorshipBlocks is the censorship detector's patience: if the
	// oldest feasible transaction in a bucket stays unproposed while this
	// many blocks deliver, the replica complains and votes to replace the
	// instance's leader (Sec. V-B).
	CensorshipBlocks uint64
}

// WithDefaults returns p with every unset knob at its default: the paper's
// evaluation parameters (Sec. VII-A: 4096-transaction batches, 500-byte
// transactions, 10 s view-change timeout) and this implementation's choices
// for the rest. It is idempotent.
func (p Params) WithDefaults() Params {
	if p.BatchSize <= 0 {
		p.BatchSize = 4096
	}
	if p.BatchTimeout <= 0 {
		p.BatchTimeout = 100 * time.Millisecond
	}
	if p.Window <= 0 {
		p.Window = 4
	}
	if p.EpochLen == 0 {
		p.EpochLen = 32
	}
	if p.ViewTimeout <= 0 {
		p.ViewTimeout = 10 * time.Second
	}
	if p.TxSize <= 0 {
		p.TxSize = 500
	}
	if p.CensorshipBlocks == 0 {
		p.CensorshipBlocks = 64
	}
	return p
}

// Violation is one rule a configuration breaks: the field the public SDK
// reports it under, and why.
type Violation struct{ Field, Reason string }

// Violations collects broken rules in the order they were checked; Params
// and the harness's cluster.Config both report theirs in this shape.
type Violations []Violation

// Add records a violation of field when broken.
func (v *Violations) Add(broken bool, field, format string, args ...any) {
	if broken {
		*v = append(*v, Violation{field, fmt.Sprintf(format, args...)})
	}
}

// Check lists the fields of p no engine can run with. WithDefaults reads a
// negative value as unset, so whoever takes Params from outside the program
// (the SDK's Validate, the daemon's flags) rejects these first, and the
// values whose arithmetic would wrap.
func (p Params) Check() (out Violations) {
	const reason = "must be non-negative, got %v"
	out.Add(p.BatchSize < 0, "BatchSize", reason, p.BatchSize)
	// A straggler's pulse is BatchTimeout times its scale.
	out.AddSpan("BatchTimeout", p.BatchTimeout, MaxSpan/scenario.MaxStraggle)
	out.Add(p.Window < 0, "Window", reason, p.Window)
	// The run-ahead limit is epochLead epochs of blocks.
	out.Add(p.EpochLen > math.MaxUint64/epochLead, "EpochLen", "must be at most %d, got %d", uint64(math.MaxUint64/epochLead), p.EpochLen)
	out.AddSpan("ViewTimeout", p.ViewTimeout, MaxSpan)
	out.Add(p.TxSize < 0, "TxSize", reason, p.TxSize)
	return out
}

// MaxSpan bounds every time knob: a run's clock adds a few of them (the
// submission window and its drain, a timeout armed near the run's end),
// and at an eighth of time.Duration's range no such sum wraps.
const MaxSpan = time.Duration(math.MaxInt64 / 8)

// AddSpan records a violation of field unless d is in [0, limit].
func (v *Violations) AddSpan(field string, d, limit time.Duration) {
	v.Add(d < 0, field, "must be non-negative, got %v", d)
	v.Add(d > limit, field, "must be at most %v, got %v", limit, d)
}

// AddLoad records a violation of field unless rate (transactions per
// second) can pace an open-loop client: 0, which means no client or the
// default, or a finite rate whose interval 1s/rate fits a time.Duration. A
// smaller rate's interval overflows and a non-finite one has none. The rule
// is written the way round that NaN fails. It is the one load rule: the
// harness's Check and the daemon's -load flag both apply it.
func (v *Violations) AddLoad(field string, rate float64) {
	ok := rate == 0 || rate > 0 && rate <= math.MaxFloat64 && float64(time.Second)/rate < math.MaxInt64
	v.Add(!ok, field, "must be 0 or a finite positive rate whose interval 1s/rate fits a time.Duration, got %v", rate)
}

// NewConfig is replica id's configuration in an n-replica cluster (m = n
// instances, f = (n-1)/3) running mode with p resolved: what the harness
// and the daemon both build before attaching their hooks.
func NewConfig(n, id int, mode Mode, p Params, genesis func(*ledger.Store)) Config {
	return Config{N: n, F: (n - 1) / 3, ID: id, M: n, Mode: mode, Params: p.WithDefaults(), Genesis: genesis}
}
