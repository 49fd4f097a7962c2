package orthrus

import (
	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/registry"

	// The comparison protocols register themselves at init time; importing
	// them here guarantees every SDK user sees the full panel.
	_ "repro/internal/baseline"
)

// Mode describes a protocol to the replica framework: how the global log
// is built (NewGlobal), whether payments bypass it (FastPathPayments),
// how multi-payer transactions are assigned (SplitMultiPayer: to every
// payer's bucket, or else to the first payer bucket, where every payer
// leg then escrows), and how the system reacts to leader failure (the
// epoch/view-change flags). Most SDK callers never construct one — they
// pick protocols by name — but a new protocol composes a Mode from the
// ordering building blocks below and registers its constructor with
// Register. Outside this module its NewGlobal returns PredeterminedOrdering
// or DynamicOrdering: GlobalOrdering's methods take the module's internal
// block type, which no other module can import, so only code inside the
// module can implement a custom ordering:
//
//	orthrus.Register("Hydra", "dynamic ordering, no fast path", func() orthrus.Mode {
//		return orthrus.Mode{
//			Name:      "Hydra",
//			NewGlobal: func(m int) orthrus.GlobalOrdering { return orthrus.DynamicOrdering(m) },
//		}
//	})
type Mode = core.Mode

// GlobalOrdering merges the blocks delivered by the m worker instances
// into the globally confirmed sequence; implementations must be
// deterministic functions of the local delivery sequence. The two
// orderings the paper's protocols use are PredeterminedOrdering and
// DynamicOrdering, and they are the two an SDK user can pick: the methods
// take an internal block type, so the interface cannot be implemented
// outside this module.
type GlobalOrdering = core.GlobalOrdering

// PredeterminedOrdering returns the fixed round-robin global ordering
// over m instances (ISS/Mir style: instance i's k-th block occupies a
// position known in advance).
func PredeterminedOrdering(m int) GlobalOrdering {
	return core.WorkerOrdering{Ord: order.NewPredetermined(m)}
}

// DynamicOrdering returns the rank-based dynamic global ordering over m
// instances (Ladon/Orthrus style: positions follow delivery ranks, so
// slow instances do not block fast ones).
func DynamicOrdering(m int) GlobalOrdering {
	return core.WorkerOrdering{Ord: order.NewDynamic(m)}
}

// Protocol describes one registered protocol for listings and lookups.
type Protocol struct {
	name        string
	description string
}

// Name returns the protocol's registered name, as printed in figures and
// accepted by WithProtocol (case-sensitive).
func (p Protocol) Name() string { return p.name }

// Description returns the protocol's one-line description.
func (p Protocol) Description() string { return p.description }

// Sentinel errors of the protocol registry; returned errors wrap these, so
// match with errors.Is.
var (
	// ErrDuplicateProtocol reports a Register call whose name is taken.
	ErrDuplicateProtocol = registry.ErrDuplicate
	// ErrUnknownProtocol reports a lookup of a name nobody registered.
	ErrUnknownProtocol = registry.ErrUnknown
)

// Register adds a protocol to the shared registry under the given name.
// WithProtocol, the CLIs and their listings resolve protocols by name, so
// a registered protocol runs without touching the cluster or experiments
// layers; each figure names its own panel and runs only that. The
// constructor is invoked once per run and must return a fresh Mode each
// call; a run reports the registered name whatever the Mode's Name says.
// Empty names, nil constructors and duplicate names (ErrDuplicateProtocol)
// are rejected.
func Register(name, description string, mode func() Mode) error {
	return registry.Register(registry.Protocol{Name: name, Description: description, New: mode})
}

// Protocols lists every registered protocol in registration order —
// Orthrus first, then the paper's baselines (ISS, Mir, DQBFT, Ladon),
// then anything registered later.
func Protocols() []Protocol {
	ps := registry.All()
	out := make([]Protocol, len(ps))
	for i, p := range ps {
		out[i] = Protocol{name: p.Name, description: p.Description}
	}
	return out
}

// ProtocolNames lists the registered protocol names in registration order.
func ProtocolNames() []string { return registry.Names() }

// LookupProtocol resolves a protocol by name; the error wraps
// ErrUnknownProtocol and names the registered protocols.
func LookupProtocol(name string) (Protocol, error) {
	p, err := registry.Lookup(name)
	if err != nil {
		return Protocol{}, err
	}
	return Protocol{name: p.Name, description: p.Description}, nil
}
