package pbft

// Adversary switches on Byzantine leader behaviors for one replica. All of
// a replica's engines share one Adversary value (the core layer owns it and
// passes a pointer into every pbft.Config), so a scenario event flips the
// behavior for every SB instance the replica currently leads at once. The
// flags are read only on the proposal and view-change assembly paths —
// never per incoming message — so a benign run pays one nil check per
// proposed block, nothing on the vote hot path.
//
// Both behaviors are leader-role attacks: they describe what the replica
// does while it leads a view. Honest replicas' failure detectors respond by
// rotating the view, and with leadership gone the flags have nothing left
// to corrupt — a leader rotation is what ends an attack. This complements
// Config.Mute, which models the opposite (a backup that silently refuses to
// vote) and stays a static per-engine setting.
type Adversary struct {
	// MuteLeader suppresses all of the replica's leader-role traffic:
	// proposals are swallowed after sequence-number assignment (the pipeline
	// window still fills, so the proposal pulses stop on their own) and
	// NewView assembly is skipped even with a quorum of view-change votes.
	// Honest replicas see a silent leader, time out, and rotate the view.
	// Applied to the leaders of many SB instances in one window this is the
	// view-change storm scenario.
	MuteLeader bool
	// Equivocate sends conflicting PrePrepares for the same (view, seq) to
	// disjoint replica halves: the real block to replicas [0, n/2) and a
	// no-op twin with a different digest to [n/2, n). Since each half is
	// smaller than the prepare quorum, neither conflicting block can gather
	// enough matching votes; the instance stalls until the progress detector
	// rotates the leader. The safety suite asserts the stall is the only
	// effect — no two honest replicas ever commit conflicting blocks.
	Equivocate bool
}

// leaderMuted reports whether this replica is currently attacking by
// suppressing its leader-role traffic.
func (e *Engine) leaderMuted() bool {
	return e.cfg.Adversary != nil && e.cfg.Adversary.MuteLeader
}

// equivocating reports whether this replica is currently attacking by
// sending conflicting proposals to disjoint replica halves.
func (e *Engine) equivocating() bool {
	return e.cfg.Adversary != nil && e.cfg.Adversary.Equivocate
}

// equivocate sends the real proposal to replicas [0, n/2) and a conflicting
// no-op twin to [n/2, n). The split is deterministic — same halves every
// block — which is the strongest variant for the safety property: the same
// minority keeps accumulating votes for the twin chain.
func (e *Engine) equivocate(m *PrePrepare) {
	twinBlock := e.cfg.MakeNoop(m.Seq)
	// Digest before sending (see Propose): the twin's pointer goes to
	// several replicas.
	twinBlock.Digest()
	twin := &PrePrepare{Instance: e.cfg.Instance, View: m.View, Seq: m.Seq, Block: twinBlock}
	half := e.cfg.N / 2
	for to := 0; to < e.cfg.N; to++ {
		if to < half {
			e.nw.Send(e.cfg.ID, to, m)
		} else {
			e.nw.Send(e.cfg.ID, to, twin)
		}
	}
}
