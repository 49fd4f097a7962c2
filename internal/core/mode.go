// Package core implements the Multi-BFT replica framework and the Orthrus
// protocol on top of it (paper Algorithm 1). A Replica runs m parallel
// PBFT-based sequenced-broadcast instances over its types.Network (the
// simulated one or a real transport), partitions client transactions into
// buckets, maintains partial logs and a global log, and executes
// transactions with the escrow mechanism.
//
// The framework is parameterized by a Mode, which captures what
// distinguishes the protocols the paper evaluates: how the global log is
// built (predetermined positions, dynamic ranks, or a dedicated sequencer
// instance), whether payments bypass global ordering (Orthrus's fast path),
// whether multi-payer transactions are split across instances, and how the
// system reacts to leader failure. Package baseline provides the modes of
// the four baselines: ISS, Mir-BFT, DQBFT and Ladon.
//
// Params (params.go) declares the engine knobs every replica must agree
// on, with their only defaults and range check; Config embeds it beside
// what is per replica.
//
// A message's sender is whoever the transport says delivered it.
// Replica.handle compares a self-declared Replica field with that once, and
// the books kept per replica (ckptVotes, stResps) are slices it indexes.
package core

import (
	"repro/internal/order"
	"repro/internal/pbft"
	"repro/internal/types"
)

// SB is one sequenced-broadcast instance seen from one replica: the paper's
// black box with broadcast/deliver primitives (Sec. III-C). The default
// implementation is message-level PBFT (package pbft); the benchmark
// harness substitutes an analytic quorum-time implementation (package sb)
// for large replica counts.
type SB interface {
	// CanPropose reports whether this replica may broadcast the next block
	// (it leads the current view and the pipeline window has room).
	CanPropose() bool
	// NextProposeSeq returns the sequence number the next proposal takes.
	NextProposeSeq() uint64
	// Propose broadcasts a block; the caller must be the current leader.
	Propose(b *types.Block) error
	// SetTarget arms the failure detector: sequence numbers below target
	// are expected to deliver or a view change fires.
	SetTarget(target uint64)
	// IsLeader reports whether this replica leads the current view.
	IsLeader() bool
	// Leader returns the current view's leader.
	Leader() int
	// View returns the current view number.
	View() uint64
	// Stop halts the instance (crash); Resume undoes it, where supported.
	Stop()
	Resume()
	// Handle processes a protocol message from replica from and reports
	// false for one it refuses whole (see pbft.Engine.Handle).
	Handle(from int, msg pbft.Message) bool
	// Complain votes to replace the current leader (censorship detector).
	Complain()
	// SkipDelivered delivers the next block on the word of state transfer
	// instead of agreement; false leaves the gap.
	SkipDelivered(b *types.Block) bool
	// Log returns the delivered blocks the instance still holds, from
	// sequence number from (or its floor, if higher) up to its cursor: what
	// catch-up serves peers. The slice is the instance's own; copy it to
	// keep it.
	Log(from uint64) []*types.Block
	// ReleaseBelow drops the logged blocks below seq (checkpoint GC).
	ReleaseBelow(seq uint64)
	// InFlight counts proposed-but-undelivered sequence numbers (LiveSet
	// census).
	InFlight() int
}

// SBHooks are the upcalls an SB implementation drives into the replica.
type SBHooks struct {
	// OnDeliver fires exactly once per sequence number, in order.
	OnDeliver func(b *types.Block)
	// OnViewChange fires when a new view installs.
	OnViewChange func(view uint64, leader int)
	// MakeNoop builds a filler block for gap sequence numbers.
	MakeNoop func(sn uint64) *types.Block
}

// SBBuilder constructs the SB instance with the given index for a replica.
type SBBuilder func(instance int, hooks SBHooks) SB

// GlobalOrdering merges delivered blocks into the globally confirmed
// sequence. Implementations must be deterministic functions of the local
// delivery sequence so all honest replicas agree without communication.
type GlobalOrdering interface {
	// Both deliver hooks may return a scratch slice owned by the ordering,
	// valid only until the next call — callers consume it immediately.
	// OnWorkerDeliver is invoked for every block delivered by a worker SB
	// instance; it returns blocks that became globally confirmed, in order.
	OnWorkerDeliver(b *types.Block) []*types.Block
	// OnSequencerDeliver is invoked for blocks of the dedicated sequencer
	// instance (DQBFT); non-sequencer modes never receive this call.
	OnSequencerDeliver(b *types.Block) []*types.Block
	// PendingCount returns delivered-but-unconfirmed blocks.
	PendingCount() int
}

// WorkerOrdering adapts a plain order.Orderer (predetermined or dynamic)
// into a GlobalOrdering that ignores sequencer blocks.
type WorkerOrdering struct {
	Ord order.Orderer
}

// OnWorkerDeliver implements GlobalOrdering.
func (w WorkerOrdering) OnWorkerDeliver(b *types.Block) []*types.Block { return w.Ord.Deliver(b) }

// OnSequencerDeliver implements GlobalOrdering.
func (w WorkerOrdering) OnSequencerDeliver(b *types.Block) []*types.Block { return nil }

// PendingCount implements GlobalOrdering.
func (w WorkerOrdering) PendingCount() int { return w.Ord.PendingCount() }

// Mode selects a Multi-BFT protocol variant.
type Mode struct {
	// Name identifies the protocol in output ("Orthrus", "ISS", ...).
	Name string
	// NewGlobal builds the global ordering over m worker instances.
	NewGlobal func(m int) GlobalOrdering
	// FastPathPayments confirms payment transactions directly from partial
	// logs via the escrow mechanism, bypassing the global log (Orthrus).
	FastPathPayments bool
	// SplitMultiPayer assigns multi-payer transactions to every payer's
	// bucket, each escrowing its own payers' legs (Orthrus). Without it a
	// multi-payer transaction goes to its first payer bucket (the lowest
	// numbered) and every payer leg escrows there. A payer's debits then
	// run on more than one instance, so with FastPathPayments replicas may
	// order a contended payer's escrows differently.
	SplitMultiPayer bool
	// Sequencer adds a dedicated ordering SB instance (DQBFT): worker
	// blocks are globally ordered by reference blocks decided on it.
	Sequencer bool
	// EpochStallOnViewChange stalls every instance while any view change is
	// in progress (Mir-BFT's epoch-change behavior).
	EpochStallOnViewChange bool
	// StrictEpochBarrier pauses instances that finished their epoch
	// allotment until all instances catch up (pre-determined protocols).
	// Without it, instances may run a bounded number of epochs ahead.
	StrictEpochBarrier bool
}

// OrthrusMode returns the paper's protocol: dynamic rank-based global
// ordering for contract transactions, escrow-based fast path for payments,
// and multi-payer splitting with atomicity via escrow.
func OrthrusMode() Mode {
	return Mode{
		Name:             "Orthrus",
		NewGlobal:        func(m int) GlobalOrdering { return WorkerOrdering{Ord: order.NewDynamic(m)} },
		FastPathPayments: true,
		SplitMultiPayer:  true,
	}
}
