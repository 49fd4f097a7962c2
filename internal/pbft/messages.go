// Package pbft implements the Practical Byzantine Fault Tolerance protocol
// (Castro & Liskov, OSDI'99) as a deterministic event-driven state machine,
// one engine per sequenced-broadcast (SB) instance. It provides the
// three-phase normal case (pre-prepare / prepare / commit), in-order
// delivery, and a view-change / new-view protocol that replaces a faulty
// leader and re-proposes prepared blocks (filling gaps with no-op blocks,
// as ISS does).
//
// The paper treats SB as a black box implemented with PBFT (Sec. VII); this
// package is that box. Point-to-point channels are authenticated (the
// system-model assumption), so votes carry no signatures and a message's
// sender is whoever the transport says delivered it: Engine.Handle drops a
// vote whose self-declared Replica disagrees, and the per-replica books
// (voteSet, Engine.vcVotes) are indexed by the checked id. Nothing signs
// block proposals either: Block.Sig travels empty.
package pbft

import (
	"repro/internal/types"
)

// Message is the union of PBFT protocol messages. Every message carries the
// SB instance it belongs to, so a cluster replica can route messages of m
// concurrent instances through one network handler.
type Message interface {
	PBFTInstance() int
}

// PrePrepare is the leader's proposal for (view, seq).
type PrePrepare struct {
	Instance int
	View     uint64
	Seq      uint64
	Block    *types.Block
}

// PBFTInstance implements Message.
func (m *PrePrepare) PBFTInstance() int { return m.Instance }

// Prepare is a backup's echo of the proposal digest for (view, seq).
type Prepare struct {
	Instance int
	View     uint64
	Seq      uint64
	Digest   types.BlockID
	Replica  int
}

// PBFTInstance implements Message.
func (m *Prepare) PBFTInstance() int { return m.Instance }

// Commit is a replica's vote that (view, seq, digest) is prepared.
type Commit struct {
	Instance int
	View     uint64
	Seq      uint64
	Digest   types.BlockID
	Replica  int
}

// PBFTInstance implements Message.
func (m *Commit) PBFTInstance() int { return m.Instance }

// PreparedEntry is a prepared certificate carried in a view change: the
// highest view in which seq prepared at the sender, with the block itself
// (we ship blocks rather than digests to avoid a fetch sub-protocol).
type PreparedEntry struct {
	Seq   uint64
	View  uint64
	Block *types.Block
}

// ViewChange announces that the sender moves to NewView and reports its
// delivered prefix and prepared-but-undelivered blocks.
type ViewChange struct {
	Instance  int
	NewView   uint64
	Replica   int
	Delivered uint64 // number of blocks the sender has delivered
	Prepared  []PreparedEntry
}

// PBFTInstance implements Message.
func (m *ViewChange) PBFTInstance() int { return m.Instance }

// NewView is the new leader's installation message: re-proposals for every
// sequence number that must be decided in the new view.
type NewView struct {
	Instance    int
	View        uint64
	Reproposals []*PrePrepare
}

// PBFTInstance implements Message.
func (m *NewView) PBFTInstance() int { return m.Instance }
