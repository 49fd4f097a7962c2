// Package baseline provides the four Multi-BFT protocol variants the paper
// compares Orthrus against, expressed as core.Mode configurations plus the
// DQBFT dedicated-sequencer global ordering:
//
//   - Mir-BFT: pre-determined round-robin global order; any leader failure
//     triggers an epoch change that stalls every instance.
//   - ISS: pre-determined global order; a faulty instance's gap is filled
//     with no-op blocks so only that instance view-changes.
//   - DQBFT: a dedicated SB instance globally orders the blocks delivered
//     by the worker instances.
//   - Ladon: dynamic rank-based global ordering (Orthrus reuses this for
//     its global log while its payments bypass it).
//
// All of them execute every transaction at its global-log position; none
// has Orthrus's partial-order fast path or multi-payer splitting.
//
// RCC, the paper's fifth baseline, would be ISSMode field for field here.
//
// To add a protocol, return its core.Mode from a constructor and register
// it in internal/registry (as this package's init does): the SDK, the CLIs
// and -list then resolve it by name, and a figure runs it once its panel
// names it (see ARCHITECTURE.md's extension seams). The public entry point
// for the same seam is orthrus.Register.
package baseline

import (
	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/registry"
	"repro/internal/types"
)

// The baselines register at init time. The registry already holds Orthrus
// (it registers itself first), so it lists Orthrus, ISS, Mir, DQBFT, Ladon.
func init() {
	for _, p := range []registry.Protocol{
		{Name: "ISS", Description: "pre-determined global order; a faulty instance's gap is filled with no-op blocks", New: ISSMode},
		{Name: "Mir", Description: "pre-determined global order; any leader failure stalls every instance (epoch change)", New: MirMode},
		{Name: "DQBFT", Description: "a dedicated sequencer instance globally orders the worker instances' blocks", New: DQBFTMode},
		{Name: "Ladon", Description: "dynamic rank-based global ordering for all transactions (no payment fast path)", New: LadonMode},
	} {
		registry.MustRegister(p)
	}
}

// ISSMode returns ISS: predetermined ordering with no-op gap filling.
func ISSMode() core.Mode {
	return core.Mode{
		Name:               "ISS",
		NewGlobal:          func(m int) core.GlobalOrdering { return core.WorkerOrdering{Ord: order.NewPredetermined(m)} },
		StrictEpochBarrier: true,
	}
}

// MirMode returns Mir-BFT: predetermined ordering; view changes stall all
// instances (epoch change), making it the most straggler/fault sensitive.
func MirMode() core.Mode {
	return core.Mode{
		Name:                   "Mir",
		NewGlobal:              func(m int) core.GlobalOrdering { return core.WorkerOrdering{Ord: order.NewPredetermined(m)} },
		StrictEpochBarrier:     true,
		EpochStallOnViewChange: true,
	}
}

// LadonMode returns Ladon: dynamic rank-based global ordering for all
// transactions (no payment fast path).
func LadonMode() core.Mode {
	return core.Mode{
		Name:      "Ladon",
		NewGlobal: func(m int) core.GlobalOrdering { return core.WorkerOrdering{Ord: order.NewDynamic(m)} },
	}
}

// DQBFTMode returns DQBFT: worker blocks are globally ordered by reference
// blocks decided on a dedicated sequencer SB instance.
func DQBFTMode() core.Mode {
	return core.Mode{
		Name:      "DQBFT",
		NewGlobal: func(m int) core.GlobalOrdering { return NewRefOrderer() },
		Sequencer: true,
	}
}

// RefOrderer implements DQBFT's global ordering: the sequencer instance
// decides the order of worker blocks by reference; a referenced block is
// confirmed once it has been delivered locally and every earlier reference
// has been confirmed.
type RefOrderer struct {
	// have holds locally delivered worker blocks not yet confirmed.
	have map[types.BlockRef]*types.Block
	// ordered dedups references across sequencer blocks.
	ordered map[types.BlockRef]bool
	// queue is the sequencer-decided confirmation order still waiting for
	// local delivery of its head.
	queue   []types.BlockRef
	pending int
}

// NewRefOrderer creates an empty DQBFT orderer.
func NewRefOrderer() *RefOrderer {
	return &RefOrderer{
		have:    make(map[types.BlockRef]*types.Block),
		ordered: make(map[types.BlockRef]bool),
	}
}

// OnWorkerDeliver implements core.GlobalOrdering.
func (r *RefOrderer) OnWorkerDeliver(b *types.Block) []*types.Block {
	r.have[types.BlockRef{Instance: b.Instance, SN: b.SN}] = b
	r.pending++
	return r.drain()
}

// OnSequencerDeliver implements core.GlobalOrdering.
func (r *RefOrderer) OnSequencerDeliver(b *types.Block) []*types.Block {
	for _, ref := range b.Refs {
		if !r.ordered[ref] {
			r.ordered[ref] = true
			r.queue = append(r.queue, ref)
		}
	}
	return r.drain()
}

func (r *RefOrderer) drain() []*types.Block {
	var out []*types.Block
	for len(r.queue) > 0 {
		b, ok := r.have[r.queue[0]]
		if !ok {
			break // referenced block not yet delivered locally
		}
		delete(r.have, r.queue[0])
		r.queue = r.queue[1:]
		r.pending--
		out = append(out, b)
	}
	return out
}

// PendingCount implements core.GlobalOrdering.
func (r *RefOrderer) PendingCount() int { return r.pending }
