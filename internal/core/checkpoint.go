package core

import (
	"crypto/sha256"
	"slices"

	"repro/internal/pbft"
)

// ckptVote is a digest vouched for an epoch: a replica's slot in the vote
// book (live is false until its first vote), or the quorum the replica has
// yet to match (Replica.pend). A slot more than one epoch below the stable
// floor is dead too: nothing down there is tallied, the census skips it.
type ckptVote struct {
	epoch  uint64
	digest [32]byte
	live   bool
}

// agreed visits n senders in index order (replicas by id; adoptCert's certs
// by height) and returns the one whose value is the first to be shared by
// need of them, or -1 if no value gets that far; val reports sender i's
// value and whether it has one. The fixed order makes the choice a function
// of the values alone — not of arrival order — whatever a faulty minority
// sends.
func agreed[K comparable](n, need int, val func(i int) (K, bool)) int {
	var kbuf [4]K // distinct values seen; honest runs see one, more spill to the heap
	var nbuf [4]int
	keys, counts := kbuf[:0], nbuf[:0]
	for i := 0; i < n; i++ {
		k, ok := val(i)
		if !ok {
			continue
		}
		j := slices.Index(keys, k)
		if j < 0 {
			j, keys, counts = len(keys), append(keys, k), append(counts, 0)
		}
		if counts[j]++; counts[j] >= need {
			return i
		}
	}
	return -1
}

// boundDigest is an epoch's checkpoint digest: the hash of its per-instance
// boundary hashes, in instance order.
func boundDigest(bd [][32]byte) [32]byte {
	h := sha256.New()
	for i := range bd {
		h.Write(bd[i][:])
	}
	return [32]byte(h.Sum(nil))
}

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
			r.nw.Broadcast(r.cfg.ID, msg)
		}
	}
	if r.pend.live {
		r.tryStabilize(r.pend.epoch, r.pend.digest)
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
	return boundDigest(bd), true
}

// onCheckpoint books m as its (authenticated, see handle) sender's vote; a
// quorum of matching digests (pbft.Quorum: any two quorums share an honest
// replica, so at most one digest per epoch can ever stabilize) makes the
// checkpoint stable, enabling garbage collection and advancing the epoch
// obligation of the failure detector. Honest replicas match; Byzantine or
// diverged ones simply do not count toward the quorum.
func (r *Replica) onCheckpoint(m *CheckpointMsg) {
	v := &r.ckptVotes[m.Replica]
	if m.Epoch < r.stableEpoch || v.live && m.Epoch <= v.epoch {
		return // already covered, or not newer than the sender's vote
	}
	*v = ckptVote{epoch: m.Epoch, digest: m.Digest, live: true}
	rid := agreed(r.cfg.N, pbft.Quorum(r.cfg.N, r.cfg.F), func(rid int) ([32]byte, bool) {
		v := &r.ckptVotes[rid]
		return v.digest, v.live && v.epoch == m.Epoch
	})
	if rid >= 0 {
		r.tryStabilize(m.Epoch, r.ckptVotes[rid].digest)
	}
}

// tryStabilize attempts to make epoch e's checkpoint stable under quorum
// digest d. Stabilization requires the replica's OWN boundary digest to
// match the quorum's: a replica must never garbage-collect on other
// replicas' say-so — if it diverged, it would discard exactly the state it
// needs to repair. A replica that cannot match yet records the quorum as
// pending and re-checks at every epoch boundary; one that has delivered
// the full epoch and still disagrees is truly diverged (e.g. a delivery
// gap from a crash) and requests state-transfer catch-up.
//
// An incomplete epoch under a stable quorum also triggers catch-up, at
// most once per epoch, epoch 0 included (stReqEpoch is one past the last
// epoch requested for): a quorum finished an epoch the replica has not,
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
		if !r.pend.live || e > r.pend.epoch {
			r.pend = ckptVote{epoch: e, digest: d, live: true}
		}
		if complete || e >= r.stReqEpoch {
			r.stReqEpoch = e + 1
			r.requestStateTransfer()
		}
		return
	}
	if r.pend.live && r.pend.epoch <= e {
		r.pend.live = false
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
// dedup records, finished trackers, pre-checkpoint boundary snapshots, and
// the engines' delivered-block logs below the floor (catch-up supersedes
// their laggard-repair role there). Everything released here is
// execution-irrelevant — delivery, execution, and messaging never read it
// again — so collecting it cannot change what a run measures.
func (r *Replica) gcEpoch() {
	r.buckets.GC()
	// A released slot leaves the table once no bucket holds state for it,
	// and its resolution once no replica's table holds it.
	for _, s := range r.release {
		if r.escrowedHi != nil {
			delete(r.escrowedHi, s)
		}
		*r.tracker(s) = txTracker{}
		r.buckets.Table().Unpin(s)
	}
	r.release = r.release[:0]
	for _, s := range r.buckets.Table().Reap() {
		r.resolver.drop(s)
	}
	// The engines' logs keep one epoch of hysteresis below the stable
	// floor: a replica that crashed shortly before the boundary asks for
	// blocks the boundary already covers, and serving them is the only
	// repair path below the floor (there is no snapshot installation). One
	// epoch bounds the extra retention at M x EpochLen blocks.
	floor := uint64(0)
	if r.stableEpoch > 1 {
		floor = (r.stableEpoch - 1) * r.cfg.EpochLen
	}
	for i := 0; i < r.cfg.M; i++ {
		r.sbs[i].ReleaseBelow(floor)
	}
	clear(r.stResps)
	for e := range r.bound {
		// Keep the stable boundary itself: CheckpointCert responses cite it.
		if e+1 < r.stableEpoch {
			delete(r.bound, e)
		}
	}
}

// SBs exposes the SB instances for tests and the cluster harness.
func (r *Replica) SBs() []SB { return r.sbs }

// Epoch returns (current epoch obligation, stable checkpointed epochs).
func (r *Replica) Epoch() (current, stable uint64) { return r.epoch, r.stableEpoch }
