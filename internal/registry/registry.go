// Package registry is the protocol extension seam: a named registry of
// core.Mode constructors through which the public orthrus SDK and the
// CLIs (their flags and -list) resolve protocols by name. Protocol packages
// register themselves at init time — this package registers Orthrus, and
// package baseline registers the four comparison protocols — so a new
// protocol runs without touching cluster or experiments code. The
// figures do not read the registry: each names its own panel.
//
// Registration and lookup errors are typed: errors.Is(err, ErrDuplicate)
// and errors.Is(err, ErrUnknown) let callers distinguish the two failure
// shapes without string matching.
package registry

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
)

// Protocol is one registered protocol: a unique name (as printed in
// figures and accepted by CLI flags, case-sensitive), a one-line
// description for listings, and a constructor returning a fresh core.Mode.
// The constructor is called once per experiment run — modes carry closures
// over per-run ordering state, so they must not be shared between runs.
// Register wraps New so that every Mode it returns carries Name: a run
// reports the name it was selected by, whatever the constructor set.
type Protocol struct {
	Name        string
	Description string
	New         func() core.Mode
}

// Sentinel errors for the two registry failure shapes; returned errors
// wrap these, so match with errors.Is.
var (
	// ErrDuplicate reports a Register call whose name is already taken.
	ErrDuplicate = errors.New("protocol already registered")
	// ErrUnknown reports a Lookup of a name nobody registered.
	ErrUnknown = errors.New("unknown protocol")
)

// Registry is an ordered, concurrency-safe protocol table. The zero value
// is not usable; call NewRegistry. Most callers use the package-level
// Default registry.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]Protocol
	order  []string
}

// NewRegistry creates an empty registry (tests use isolated instances;
// everything else shares Default).
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Protocol)}
}

// Register adds a protocol. It rejects an empty name, a nil constructor,
// and a name already registered (ErrDuplicate).
func (r *Registry) Register(p Protocol) error {
	if p.Name == "" {
		return fmt.Errorf("registry: protocol has empty name")
	}
	if p.New == nil {
		return fmt.Errorf("registry: protocol %q has nil constructor", p.Name)
	}
	name, newMode := p.Name, p.New
	p.New = func() core.Mode {
		m := newMode()
		m.Name = name
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[p.Name]; ok {
		return fmt.Errorf("registry: %w: %q", ErrDuplicate, p.Name)
	}
	r.byName[p.Name] = p
	r.order = append(r.order, p.Name)
	return nil
}

// Lookup resolves a protocol by name; the error wraps ErrUnknown and names
// the registered protocols.
func (r *Registry) Lookup(name string) (Protocol, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.byName[name]
	if !ok {
		return Protocol{}, fmt.Errorf("registry: %w %q (registered: %v)", ErrUnknown, name, r.order)
	}
	return p, nil
}

// All returns every protocol in registration order (Orthrus first, then
// the baselines — the order the paper's figures use).
func (r *Registry) All() []Protocol {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Protocol, len(r.order))
	for i, name := range r.order {
		out[i] = r.byName[name]
	}
	return out
}

// Names returns the registered names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Default is the process-wide registry protocol packages register into at
// init time.
var Default = NewRegistry()

// Register adds a protocol to the Default registry.
func Register(p Protocol) error { return Default.Register(p) }

// MustRegister is Register panicking on error — for init-time registration
// of compiled-in protocols, where a failure is a programming bug.
func MustRegister(p Protocol) {
	if err := Register(p); err != nil {
		panic(err)
	}
}

// Lookup resolves a name in the Default registry.
func Lookup(name string) (Protocol, error) { return Default.Lookup(name) }

// All lists the Default registry in registration order.
func All() []Protocol { return Default.All() }

// Names lists the Default registry's names in registration order.
func Names() []string { return Default.Names() }

// Orthrus registers itself: it is the protocol under test, so it is always
// present and always first.
func init() {
	MustRegister(Protocol{
		Name:        "Orthrus",
		Description: "dynamic rank-based global ordering; payments bypass it via the escrow fast path; multi-payer transactions split across instances",
		New:         core.OrthrusMode,
	})
}
