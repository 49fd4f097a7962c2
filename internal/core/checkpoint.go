package core

import "crypto/sha256"

// maybeFinishEpoch checks whether every worker instance has delivered its
// allotment for the current epoch; if so it broadcasts a checkpoint message
// (Sec. V-D) covering the epoch's blocks, then re-examines any remote
// checkpoint quorum that was waiting on the local boundary digest.
func (r *Replica) maybeFinishEpoch() {
	end := (r.epoch + 1) * r.cfg.EpochLen
	for _, delivered := range r.state {
		if delivered < end {
			return
		}
	}
	if r.epoch >= r.ckptSent {
		if d, ok := r.localDigest(r.epoch); ok {
			r.ckptSent = r.epoch + 1
			msg := &CheckpointMsg{Epoch: r.epoch, Digest: d, Replica: r.cfg.ID}
			r.nw.Broadcast(r.cfg.ID, 128, msg)
		}
	}
	if r.pendSet {
		r.tryStabilize(r.pendEpoch, r.pendDigest)
	}
}

// localDigest returns the replica's own digest for epoch e: the hash of the
// per-instance boundary snapshots taken as each instance delivered the
// epoch's last block. Replicas that delivered the same epoch produce the
// same digest no matter how far either has since run ahead. ok is false
// until every instance has crossed the boundary (or after the snapshots
// were pruned below the stable floor).
func (r *Replica) localDigest(e uint64) (d [32]byte, ok bool) {
	end := (e + 1) * r.cfg.EpochLen
	for _, delivered := range r.state {
		if delivered < end {
			return d, false
		}
	}
	bd, ok := r.bound[e]
	if !ok {
		return d, false
	}
	h := sha256.New()
	for i := range bd {
		h.Write(bd[i][:])
	}
	copy(d[:], h.Sum(nil))
	return d, true
}

// ckptQuorum is the checkpoint stability threshold. ceil((n+f+1)/2)
// guarantees any two quorums intersect in at least one honest replica —
// the classical 2f+1 only does when n = 3f+1 exactly — so at most one
// digest per epoch can ever stabilize.
func (r *Replica) ckptQuorum() int { return (r.cfg.N + r.cfg.F + 2) / 2 }

// onCheckpoint collects checkpoint votes; a quorum of matching digests
// makes the checkpoint stable, enabling garbage collection and advancing
// the epoch obligation of the failure detector. Each replica holds at most
// one live vote (a newer epoch evicts the older), so a faulty replica
// spamming far-future epoch numbers cannot grow the vote maps — the same
// bound PR 6 put on view-change votes.
func (r *Replica) onCheckpoint(m *CheckpointMsg) {
	if m.Replica < 0 || m.Replica >= r.cfg.N {
		return // Byzantine: vote from a nonexistent replica
	}
	if m.Epoch < r.stableEpoch || m.Epoch+1 <= r.ckptHighest[m.Replica] {
		return // already covered, or not newer than the sender's live vote
	}
	if prev := r.ckptHighest[m.Replica]; prev > 0 {
		if votes, ok := r.ckptVotes[prev-1]; ok {
			delete(votes, m.Replica)
			if len(votes) == 0 {
				delete(r.ckptVotes, prev-1)
			}
		}
	}
	r.ckptHighest[m.Replica] = m.Epoch + 1
	votes, ok := r.ckptVotes[m.Epoch]
	if !ok {
		votes = make(map[int][32]byte)
		r.ckptVotes[m.Epoch] = votes
	}
	votes[m.Replica] = m.Digest
	// Count the most common digest (honest replicas match; Byzantine ones
	// may diverge and are simply not counted toward the quorum).
	counts := make(map[[32]byte]int)
	best := 0
	var bestD [32]byte
	for _, d := range votes {
		counts[d]++
		if counts[d] > best {
			best = counts[d]
			bestD = d
		}
	}
	if best < r.ckptQuorum() {
		return
	}
	r.tryStabilize(m.Epoch, bestD)
}

// tryStabilize attempts to make epoch e's checkpoint stable under quorum
// digest d. Stabilization requires the replica's OWN boundary digest to
// match the quorum's: a replica must never garbage-collect on other
// replicas' say-so — if it diverged, it would discard exactly the state it
// needs to repair. A replica that cannot match yet records the quorum as
// pending and re-checks at every epoch boundary; one that has delivered
// the full epoch and still disagrees is truly diverged (e.g. a delivery
// gap from a crash) and requests state-transfer catch-up when enabled.
//
// An incomplete epoch under a stable quorum also triggers catch-up, at
// most once per epoch: a quorum finished an epoch the replica has not,
// so it is lagging. One catch-up round only reaches the cluster tip as
// of the request — under real latency the tip moves during the round
// trip — so a recovering replica converges by re-requesting on each new
// quorum epoch until delivery goes live again; without the retry the
// residual gap wedges delivery (parked commits above a hole no one
// re-sends) and the replica never finishes another epoch.
func (r *Replica) tryStabilize(e uint64, d [32]byte) {
	if e < r.stableEpoch {
		return
	}
	local, complete := r.localDigest(e)
	if !complete || local != d {
		if !r.pendSet || e > r.pendEpoch {
			r.pendEpoch, r.pendDigest, r.pendSet = e, d, true
		}
		if r.cfg.StateTransfer && (complete || e > r.stReqEpoch) {
			r.stReqEpoch = e
			r.requestStateTransfer()
		}
		return
	}
	if r.pendSet && r.pendEpoch <= e {
		r.pendSet = false
	}
	r.stableEpoch = e + 1
	r.gcEpoch()
	if e >= r.epoch {
		r.epoch = e + 1
		// Extend the delivery obligation for the failure detector.
		target := (r.epoch + 1) * r.cfg.EpochLen
		for i := 0; i < r.cfg.M; i++ {
			r.sbs[i].SetTarget(target)
		}
	}
	// The obligation moved: epochs delivered while this one stabilized may
	// already be complete, so their checkpoints broadcast immediately.
	r.maybeFinishEpoch()
}

// gcEpoch discards data the stable checkpoint makes obsolete: confirmed-tx
// dedup records, finished trackers, the escrow-pool high-water mark,
// pre-checkpoint archive and boundary snapshots, old checkpoint votes, and
// (with state transfer, which supersedes their laggard-repair role) the
// engines' retained delivered-block rings. Everything released here is
// execution-irrelevant — delivery, execution, and messaging never read it
// again — so collection inside a deterministic event handler keeps serial
// and parallel kernels bit-identical.
func (r *Replica) gcEpoch() {
	r.buckets.GC()
	// A released slot leaves the table once no bucket holds state for it.
	for _, s := range r.release {
		t := r.tracker(s)
		*t = txTracker{gen: t.gen + 1}
		r.buckets.Table().Unpin(s)
	}
	r.release = r.release[:0]
	if r.archive != nil {
		// The archive keeps one epoch of hysteresis below the stable floor:
		// a replica that crashed shortly before the boundary asks for blocks
		// the boundary already covers, and serving them is the only repair
		// path below the floor (there is no snapshot installation). One
		// epoch bounds the extra retention at M x EpochLen blocks.
		floor := uint64(0)
		if r.stableEpoch > 1 {
			floor = (r.stableEpoch - 1) * r.cfg.EpochLen
		}
		for i := range r.archive {
			if r.archiveBase[i] >= floor {
				continue
			}
			drop := int(floor - r.archiveBase[i])
			if drop > len(r.archive[i]) {
				drop = len(r.archive[i])
			}
			a := r.archive[i]
			keep := copy(a, a[drop:])
			for j := keep; j < len(a); j++ {
				a[j] = nil
			}
			r.archive[i] = a[:keep]
			r.archiveBase[i] += uint64(drop)
		}
		for k := range r.stResps {
			delete(r.stResps, k)
		}
		// Retained rings repair laggards through NewView; state transfer
		// supersedes that below the stable floor.
		for i := 0; i < r.cfg.M; i++ {
			if rel, ok := r.sbs[i].(interface{ ReleaseBelow(uint64) }); ok {
				rel.ReleaseBelow(floor)
			}
		}
	}
	for e := range r.bound {
		// Keep the stable boundary itself: CheckpointCert responses cite it.
		if e+1 < r.stableEpoch {
			delete(r.bound, e)
		}
	}
	for e := range r.ckptVotes {
		if e+1 < r.stableEpoch {
			delete(r.ckptVotes, e)
		}
	}
	r.store.TrimPool(64)
}

// SBs exposes the SB instances for tests and the cluster harness.
func (r *Replica) SBs() []SB { return r.sbs }

// Epoch returns (current epoch obligation, stable checkpointed epochs).
func (r *Replica) Epoch() (current, stable uint64) { return r.epoch, r.stableEpoch }
