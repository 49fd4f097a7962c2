package core

import (
	"cmp"
	"slices"

	"repro/internal/types"
)

// State-transfer catch-up: every replica serves it and requests it.
//
// A replica that was down misses deliveries it can never regain through the
// normal path: its pbft engines hold no commit certificates for the missed
// sequences, so its delivery log keeps a gap forever while live peers run
// ahead and, after checkpoint GC, discard the blocks it would need. The
// catch-up protocol repairs the gap by replaying the blocks themselves:
//
//  1. The recovering replica broadcasts StateTransferReq with its delivered
//     state vector (its contiguous per-instance prefix).
//  2. Every live peer answers with its latest stable CheckpointCert plus,
//     per instance, the contiguous run of blocks from the requester's
//     prefix up to the peer's own tip, read off the instance's
//     delivered-block log (SB.Log).
//  3. Once 2f+1 responses arrived, the requester applies, per instance and
//     strictly in sequence order, each block vouched for by f+1 matching
//     copies (at least one honest sender). Application drives the normal
//     delivery path — the engine's cursor advances via SkipDelivered, then
//     onDeliver executes, folds digests, and feeds the global order exactly
//     as a live delivery would — so the replica provably never re-executes
//     anything below its own prefix, i.e. never replays pre-checkpoint
//     history it already holds.
//  4. A cert carried by f+1 identical responses is adopted once the local
//     log covers its boundary, stabilizing the checkpoint (and running GC)
//     without waiting for the next live vote quorum.
//
// Peers can only serve what their own GC still holds: requesters more than
// one stable checkpoint behind the cluster receive the logged suffix
// starting at the peers' GC floor and keep a gap below it. That residue
// heals on the next request round if any peer still holds the missing run;
// a replica down for many epochs rejoins consensus either way (it votes for
// new sequences immediately) but stops contributing matching checkpoint
// digests. Snapshot installation below the floor is future work.

// StateTransferReq asks peers for catch-up data: the requester's current
// per-instance delivered state; responders send back everything past it.
type StateTransferReq struct {
	Replica int
	State   types.StateVector
}

// CheckpointCert cites a stable checkpoint: one past the covered epoch, the
// quorum digest, and the per-instance boundary hashes the digest commits to
// (Stable == 0 means the responder has no stable checkpoint yet).
type CheckpointCert struct {
	Stable uint64
	Digest [32]byte
	Bound  [][32]byte
}

// BlockRun is a contiguous run of one instance's delivered blocks,
// ascending from Blocks[0].SN.
type BlockRun struct {
	Instance int
	Blocks   []*types.Block
}

// StateTransferResp is one peer's catch-up answer.
type StateTransferResp struct {
	Replica int
	Cert    CheckpointCert
	Runs    []BlockRun
}

// requestStateTransfer broadcasts a catch-up request carrying the replica's
// delivered state vector. Previously collected responses answer an older
// request (a smaller prefix) and are dropped.
func (r *Replica) requestStateTransfer() {
	clear(r.stResps)
	req := &StateTransferReq{Replica: r.cfg.ID, State: r.state.Clone()}
	r.nw.Broadcast(r.cfg.ID, req)
}

// onStateTransferReq answers a peer's catch-up request with the latest
// stable checkpoint cert and the logged block runs past the requester's
// prefix. An empty answer is still sent: the requester counts responses
// toward its 2f+1 threshold before applying what better-placed peers hold.
// It reports false for a request no honest peer sends; the replica's own
// broadcast coming back is ignored.
func (r *Replica) onStateTransferReq(m *StateTransferReq) bool {
	if len(m.State) != r.cfg.M {
		return false
	}
	if m.Replica == r.cfg.ID {
		return true
	}
	resp := &StateTransferResp{Replica: r.cfg.ID}
	if r.stableEpoch > 0 {
		if bd, ok := r.bound[r.stableEpoch-1]; ok {
			resp.Cert = CheckpointCert{Stable: r.stableEpoch, Digest: boundDigest(bd),
				Bound: append([][32]byte(nil), bd...)}
		}
	}
	for i := 0; i < r.cfg.M; i++ {
		// A copy per response: the engine's log shrinks in place under GC
		// and must not be aliased across replicas.
		if run := r.sbs[i].Log(m.State[i]); len(run) > 0 {
			resp.Runs = append(resp.Runs, BlockRun{Instance: i, Blocks: slices.Clone(run)})
		}
	}
	r.nw.Send(r.cfg.ID, m.Replica, resp)
	return true
}

// onStateTransferResp books a peer's catch-up answer and applies the book
// once 2f+1 peers responded (late answers re-trigger application and may
// close residual gaps). It reports false for an answer no honest peer
// sends, a run that is not what BlockRun says it is above all.
func (r *Replica) onStateTransferResp(m *StateTransferResp) bool {
	if m.Replica == r.cfg.ID {
		return false
	}
	for _, run := range m.Runs {
		for j, b := range run.Blocks {
			if b == nil || b.Instance != run.Instance || b.SN != run.Blocks[0].SN+uint64(j) {
				return false
			}
		}
	}
	r.stResps[m.Replica] = m
	got := 0
	for _, resp := range r.stResps {
		if resp != nil {
			got++
		}
	}
	if got >= 2*r.cfg.F+1 {
		r.applyStateTransfer()
	}
	return true
}

// applyStateTransfer replays vouched-for blocks — f+1 matching copies, at
// least one from an honest peer — through the normal delivery path, per
// instance in strict sequence order from the replica's own tip.
func (r *Replica) applyStateTransfer() {
	for i := 0; i < r.cfg.M; i++ {
		for {
			// Re-read the tip every round: onDeliver advances it, and a
			// stabilization fired from inside may clear stResps entirely.
			next := r.state[i]
			rid := agreed(r.cfg.N, r.cfg.F+1, func(rid int) (types.BlockID, bool) {
				if b := r.stResps[rid].blockAt(i, next); b != nil {
					return b.Digest(), true
				}
				return types.BlockID{}, false
			})
			// SkipDelivered drives the engine's OnDeliver hook — the block
			// executes through onDeliver exactly like a live delivery.
			if rid < 0 || !r.sbs[i].SkipDelivered(r.stResps[rid].blockAt(i, next)) {
				break
			}
			r.stApplied++
		}
	}
	r.adoptCert()
}

// blockAt returns the block with sequence sn of instance among the answer's
// runs, or nil if they do not cover it (or there is no answer).
func (m *StateTransferResp) blockAt(instance int, sn uint64) *types.Block {
	if m == nil {
		return nil
	}
	for _, run := range m.Runs {
		if run.Instance != instance || len(run.Blocks) == 0 {
			continue
		}
		if first := run.Blocks[0].SN; sn >= first && sn-first < uint64(len(run.Blocks)) {
			return run.Blocks[sn-first]
		}
	}
	return nil
}

// adoptCert stabilizes the highest checkpoint cert that f+1 responders
// agree on (at least one honest voucher) once the local log has caught up
// to its boundary — a matching local digest is exactly the stabilization
// condition, so the recovered replica garbage-collects without waiting for
// the next live vote quorum. Certs whose digest does not commit to their
// own Bound vector are discarded as malformed.
func (r *Replica) adoptCert() {
	type certKey struct {
		stable uint64
		digest [32]byte
	}
	var certs []certKey
	for _, resp := range r.stResps {
		if resp != nil && resp.Cert.Stable > r.stableEpoch && len(resp.Cert.Bound) == r.cfg.M &&
			boundDigest(resp.Cert.Bound) == resp.Cert.Digest {
			certs = append(certs, certKey{resp.Cert.Stable, resp.Cert.Digest})
		}
	}
	// Highest first, replica order among equals: the first cert f+1 share is
	// the highest one they do.
	slices.SortStableFunc(certs, func(a, b certKey) int { return cmp.Compare(b.stable, a.stable) })
	i := agreed(len(certs), r.cfg.F+1, func(i int) (certKey, bool) { return certs[i], true })
	if i >= 0 {
		r.tryStabilize(certs[i].stable-1, certs[i].digest)
	}
}

// StateTransferApplied returns how many blocks this replica applied through
// catch-up rather than live SB delivery (tests assert gap repair happened
// without pre-checkpoint replay).
func (r *Replica) StateTransferApplied() uint64 { return r.stApplied }

// LiveSet is a point-in-time census of the replica-retained state the
// long-horizon GC is responsible for bounding. The soak harness samples it
// across replicas; a flat profile after warmup is the "memory bounded at
// any virtual-time horizon" acceptance signal.
type LiveSet struct {
	Trackers  int // live transaction-table records (queued or tracked)
	ExecQ     int // delivered blocks awaiting their escrow phase
	GlogQ     int // globally confirmed blocks awaiting in-order execution
	Escrows   int // live escrow-log entries in the ledger
	Archive   int // delivered blocks the SB instances' logs hold
	Slots     int // in-flight pbft slots across instances
	CkptVotes int // live checkpoint votes
}

// Total sums the census fields.
func (s LiveSet) Total() int {
	return s.Trackers + s.ExecQ + s.GlogQ + s.Escrows + s.Archive +
		s.Slots + s.CkptVotes
}

// LiveSet reports the replica's current retained-state census.
func (r *Replica) LiveSet() LiveSet {
	ls := LiveSet{
		Trackers: r.buckets.Table().Live(),
		Escrows:  r.store.EscrowCount(),
		GlogQ:    len(r.glogQ) - r.glogHead,
	}
	for i := range r.execQ {
		ls.ExecQ += len(r.execQ[i]) - r.execQhead[i]
	}
	for _, sb := range r.sbs {
		ls.Slots += sb.InFlight()
		ls.Archive += len(sb.Log(0))
	}
	for _, v := range r.ckptVotes {
		if v.live && v.epoch+1 >= r.stableEpoch {
			ls.CkptVotes++
		}
	}
	return ls
}
