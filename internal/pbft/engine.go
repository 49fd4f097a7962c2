package pbft

import (
	"fmt"
	"time"

	"repro/internal/types"
)

// Config parameterizes one PBFT engine (one SB instance at one replica).
// Window and Timeout arrive resolved (core.Params.WithDefaults): New applies
// no defaults to them.
type Config struct {
	N        int // number of replicas
	F        int // fault threshold, N >= 3F+1
	ID       int // this replica's index
	Instance int // SB instance index
	// Window is the number of outstanding (proposed, undelivered) sequence
	// numbers the leader may pipeline.
	Window int
	// Timeout is the base progress timeout before a view change; it doubles
	// for consecutive unsuccessful view changes.
	Timeout time.Duration
	// MakeNoop builds a no-op filler block for a sequence number the new
	// leader must decide without a prepared certificate (ISS-style).
	MakeNoop func(sn uint64) *types.Block
	// OnDeliver is invoked exactly once per sequence number, in order.
	OnDeliver func(b *types.Block)
	// OnViewChange is invoked when a new view is installed.
	OnViewChange func(view uint64, leader int)
	// Mute suppresses this replica's votes (prepare/commit/view-change) —
	// models the undetectable Byzantine behavior of Sec. VII-E where a
	// replica avoids participating in instances it does not lead.
	Mute bool
	// Adversary, when non-nil, points at the replica's shared Byzantine
	// behavior switches (see the Adversary type). Scenario events flip the
	// switches mid-run; nil means permanently honest.
	Adversary *Adversary
}

// LeaderOf returns the leader of a view for this instance: instance i is
// initially led by replica i, rotating round-robin on view changes.
func (c Config) LeaderOf(view uint64) int {
	return (c.Instance + int(view)) % c.N
}

// Quorum returns the quorum size ceil((n+f+1)/2) of an n-replica group
// tolerating f faults — prepare and commit votes here, checkpoint votes in
// package core, the closed form of package sb: the smallest count whose
// pairwise intersections always contain more than f replicas, i.e. at least
// one honest one. For the paper's n = 3f+1 sizes this is the familiar 2f+1;
// for other cluster sizes (the F-scale axis includes n = 128 with f = 42)
// the fixed 2f+1 would let two quorums intersect in faulty replicas only.
func Quorum(n, f int) int { return (n + f + 2) / 2 }

// voteSet records per-replica digest votes for one phase of one slot. It
// is a fixed slice indexed by replica id plus a presence vector — cheaper
// than a map and fully reusable when its slot returns to the engine's
// pool. A running tally per tracked digest keeps the quorum check O(1)
// per vote: countFor adds one compare instead of rescanning all n votes
// (the scan survives only in retally, which runs once per slot when the
// proposal arrives after some votes).
type voteSet struct {
	digests []types.BlockID
	present []bool
	// tally counts recorded votes matching tallyFor. setTally installs the
	// digest to track (the slot's accepted proposal digest); votes recorded
	// before that are folded in by retally.
	tally    int
	tallyFor types.BlockID
	hasTally bool
}

func (v *voteSet) init(n int) {
	if cap(v.digests) < n {
		v.digests = make([]types.BlockID, n)
		v.present = make([]bool, n)
	} else {
		v.digests = v.digests[:n]
		v.present = v.present[:n]
		clear(v.present)
	}
	v.tally = 0
	v.tallyFor = types.BlockID{}
	v.hasTally = false
}

// add records replica's vote; it reports false for duplicates.
func (v *voteSet) add(replica int, d types.BlockID) bool {
	if v.present[replica] {
		return false
	}
	v.present[replica] = true
	v.digests[replica] = d
	if v.hasTally && d == v.tallyFor {
		v.tally++
	}
	return true
}

// setTally starts tracking the given digest, recounting votes already
// recorded.
func (v *voteSet) setTally(digest types.BlockID) {
	v.tallyFor = digest
	v.hasTally = true
	v.tally = 0
	for i, ok := range v.present {
		if ok && v.digests[i] == digest {
			v.tally++
		}
	}
}

// countFor returns the number of recorded votes for the tracked digest.
func (v *voteSet) countFor() int { return v.tally }

// slot tracks agreement state for one sequence number. Slots are pooled on
// the engine: tryDeliver and view installation release them, and slotFor
// reuses a released slot (vote slices included) for the next sequence
// number — the ownership rule the property tests and ARCHITECTURE.md's
// performance model document.
type slot struct {
	view      uint64
	block     *types.Block // the accepted proposal; nil until it arrives
	digest    types.BlockID
	prepares  voteSet
	commits   voteSet
	prepared  bool
	committed bool
	// Highest view in which this replica held a prepared certificate, and
	// the corresponding block — carried into view changes.
	preparedView  uint64
	preparedBlock *types.Block
}

// reset empties s for view, keeping the storage of its vote sets.
func (s *slot) reset(view uint64, n int) {
	*s = slot{view: view, prepares: s.prepares, commits: s.commits}
	s.prepares.init(n)
	s.commits.init(n)
}

// newSlot takes a slot from the pool (or allocates one) and resets it for
// the given view.
func (e *Engine) newSlot(view uint64) *slot {
	var s *slot
	if n := len(e.slotPool); n > 0 {
		s = e.slotPool[n-1]
		e.slotPool[n-1] = nil
		e.slotPool = e.slotPool[:n-1]
	} else {
		s = &slot{}
	}
	s.reset(view, e.cfg.N)
	return s
}

// freeSlot returns a slot to the pool. The caller must have removed it
// from e.slots; its block references are dropped here so the pool keeps no
// dead blocks alive.
func (e *Engine) freeSlot(s *slot) {
	s.block = nil
	s.preparedBlock = nil
	e.slotPool = append(e.slotPool, s)
}

// slotRing is a dense window of agreement slots indexed by sequence
// number: the hot message path (slotFor/advance/tryDeliver) resolves a
// sequence number with one shift-free masked index instead of a map
// lookup. The ring covers [base, base+len); base tracks the engine's
// nextDeliver, and the window grows (power-of-two, entries re-placed) on
// the rare occasion a proposal outruns it.
type slotRing struct {
	ring []*slot // power-of-two length; entry for seq lives at seq&mask
	base uint64  // lowest seq the window admits (== engine nextDeliver)
	top  uint64  // one past the highest seq that may hold a slot
}

// get returns the slot for seq, or nil if absent or outside the window.
func (r *slotRing) get(seq uint64) *slot {
	if seq < r.base || seq >= r.top {
		return nil
	}
	return r.ring[seq&uint64(len(r.ring)-1)]
}

// put installs the slot for seq (seq >= base), growing the ring on demand.
func (r *slotRing) put(seq uint64, s *slot) {
	if len(r.ring) == 0 {
		r.ring = make([]*slot, 8)
	}
	for seq-r.base >= uint64(len(r.ring)) {
		old := r.ring
		grown := make([]*slot, 2*len(old))
		for sq := r.base; sq < r.top; sq++ {
			grown[sq&uint64(len(grown)-1)] = old[sq&uint64(len(old)-1)]
		}
		r.ring = grown
	}
	r.ring[seq&uint64(len(r.ring)-1)] = s
	if seq >= r.top {
		r.top = seq + 1
	}
}

// advanceBase clears the slot at base and moves the window forward one
// sequence number (delivery order). A never-grown ring (state-transfer skip
// before any slot existed) only moves the bounds.
func (r *slotRing) advanceBase() {
	if len(r.ring) > 0 {
		r.ring[r.base&uint64(len(r.ring)-1)] = nil
	}
	r.base++
	if r.top < r.base {
		r.top = r.base
	}
}

// Engine is one PBFT instance at one replica.
type Engine struct {
	cfg Config
	nw  types.Network // sends as cfg.ID
	// sim is the replica's clock: virtual and node-pinned under the
	// simulator (timers and deadline wakeups stamp this node's canonical
	// key), the node loop's wall clock on real transports.
	sim types.Clock

	view         uint64
	viewChanging bool
	vcTarget     uint64 // view we are trying to install while viewChanging
	// vcVotes[r] is replica r's one view-change vote, for the highest view it
	// has voted for (nil = never voted): voting for view v abandons every
	// view below v, so a newer vote overwrites the older one and the book
	// holds N votes however many far-future views a faulty replica spams.
	// Installing a view clears the votes at or below it (onNewView).
	vcVotes []*ViewChange

	slots       slotRing
	slotPool    []*slot // released slots awaiting reuse
	nextDeliver uint64  // next sequence number to deliver
	nextPropose uint64  // next sequence number this replica would propose
	target      uint64  // deliveries expected (progress obligation); 0 = idle

	timeoutMult time.Duration
	// The progress failure detector is event-thrifty: a wakeup event
	// chases the moving deadline instead of one cancelled-and-reallocated
	// timer per delivery. progressDeadline is the virtual time the
	// detector fires (0 = disarmed); progressWakeAt is the earliest known
	// in-flight wakeup (0 = none). A wakeup that lands before the current
	// deadline re-arms; when the deadline moves *earlier* than every
	// in-flight wakeup (a view change shrank the timeout), an extra wakeup
	// is scheduled so detection is never late — stale later wakeups fire
	// as no-ops.
	progressDeadline types.Time
	progressWakeAt   types.Time
	// vcGen invalidates the in-flight view-change escalation timeout: every
	// event that would have cancelled it (a newer escalation, the view
	// installing, Stop) bumps the generation, and a timeout carrying a stale
	// one fires as a no-op.
	vcGen   uint64
	stopped bool

	// log holds the blocks this replica delivered, log[0] at sequence
	// number logBase, up to the cursor (a delivered block's SN is its
	// sequence number: validBlock, SkipDelivered). It is the instance's one
	// record of what it decided: state-transfer catch-up serves peers from
	// it (Log), and checkpoint GC trims it from below (ReleaseBelow).
	// Delivery discards a slot's certificates (freeSlot), so without it a
	// new leader could not prove what was decided at a sequence number some
	// replicas delivered but no pending certificate covers; sendNewView
	// re-proposes the logged block there instead of a conflicting no-op.
	log     []*types.Block
	logBase uint64
}

// RetainDelivered is how many of its latest deliveries a new leader's
// NewView re-proposes from the log (retainedBlock). It must comfortably
// exceed the pipeline window, so every gap a view change can surface is
// still covered.
const RetainDelivered = 32

// New creates an engine that sends as cfg.ID over nw, which every SB
// instance of the replica shares. Broadcasts rely on nw delivering back to
// the sender (self-delivery), as every types.Network does.
func New(cfg Config, nw types.Network, sim types.Clock) *Engine {
	if cfg.MakeNoop == nil {
		inst := cfg.Instance
		cfg.MakeNoop = func(sn uint64) *types.Block {
			return &types.Block{Instance: inst, SN: sn}
		}
	}
	return &Engine{
		cfg:         cfg,
		nw:          nw,
		sim:         sim,
		vcVotes:     make([]*ViewChange, cfg.N),
		timeoutMult: 1,
	}
}

// View returns the current view number.
func (e *Engine) View() uint64 { return e.view }

// Leader returns the current view's leader.
func (e *Engine) Leader() int { return e.cfg.LeaderOf(e.view) }

// IsLeader reports whether this replica leads the current view.
func (e *Engine) IsLeader() bool { return e.Leader() == e.cfg.ID }

// Delivered returns the number of delivered blocks (== next seq to deliver).
func (e *Engine) Delivered() uint64 { return e.nextDeliver }

// NextProposeSeq returns the sequence number the leader would assign next.
func (e *Engine) NextProposeSeq() uint64 { return e.nextPropose }

// InFlight returns the number of proposed-but-undelivered sequence numbers.
func (e *Engine) InFlight() int { return int(e.nextPropose - e.nextDeliver) }

// CanPropose reports whether the replica may propose now: it leads the
// current view, is not mid view change, and the pipeline window has room.
func (e *Engine) CanPropose() bool {
	return !e.stopped && e.IsLeader() && !e.viewChanging && e.InFlight() < e.cfg.Window
}

// Stop halts the engine: all subsequent messages are ignored and the
// armed failure-detection timers are cancelled, so a crash followed by
// Resume cannot replay a pre-crash timeout.
func (e *Engine) Stop() {
	e.stopped = true
	e.progressDeadline = 0
	e.vcGen++
}

// Resume undoes Stop: the engine handles messages and proposals again.
// It deliberately does not rearm the failure detector — a recovered
// replica votes on new sequence numbers immediately but does not complain
// about deliveries it missed while down, so its local log keeps a gap
// until a view change fills it with no-ops or the replica's state-transfer
// catch-up replays the missing blocks through SkipDelivered.
func (e *Engine) Resume() { e.stopped = false }

// SkipDelivered advances the delivery cursor past a block obtained through
// state transfer instead of a local commit certificate. The caller (the
// replica's catch-up path) owns the block's correctness — f+1 matching peer
// copies vouch for it; the engine delivers it exactly as tryDeliver would
// (deliverNext), and committed slots waiting right above the repaired gap
// flush through the normal path. Only the block at the cursor is accepted.
func (e *Engine) SkipDelivered(b *types.Block) bool {
	if e.stopped || b == nil || b.SN != e.nextDeliver {
		return false
	}
	e.deliverNext(b, e.slots.get(b.SN))
	e.tryDeliver()
	return true
}

// ReleaseBelow drops the log's blocks below sequence number seq: the
// checkpoint GC floor, below which no peer is served and no NewView fills.
// The log shrinks in place, so Log's callers copy what they keep.
func (e *Engine) ReleaseBelow(seq uint64) {
	if seq <= e.logBase {
		return
	}
	drop := min(seq-e.logBase, uint64(len(e.log)))
	keep := copy(e.log, e.log[drop:])
	clear(e.log[keep:])
	e.log = e.log[:keep]
	e.logBase += drop
}

// Log returns the delivered blocks from sequence number from (or the log's
// floor, if that is higher) up to the cursor. The slice aliases the log:
// the next delivery or ReleaseBelow may overwrite it.
func (e *Engine) Log(from uint64) []*types.Block {
	if from >= e.nextDeliver {
		return nil
	}
	return e.log[max(from, e.logBase)-e.logBase:]
}

// Complain votes for a view change immediately — used by the censorship
// detector when a leader keeps proposing blocks that omit an old pending
// transaction (Sec. V-B's failure detector). Idempotent while a view
// change for the next view is already in progress.
func (e *Engine) Complain() {
	if e.stopped || e.viewChanging {
		return
	}
	e.startViewChange(e.view + 1)
}

// SetTarget declares that sequence numbers [0, target) are expected to be
// delivered; while delivery lags the target a progress timer runs and a
// view change fires on expiry. Used by the epoch layer to detect censoring
// or crashed leaders.
func (e *Engine) SetTarget(target uint64) {
	e.target = max(e.target, target)
	e.resetProgressTimer()
}

// Propose submits a block as the next proposal. The caller must be the
// current leader (checked); the block's SN must equal NextProposeSeq.
func (e *Engine) Propose(b *types.Block) error {
	if !e.CanPropose() {
		return fmt.Errorf("pbft: replica %d cannot propose on instance %d (leader=%d viewChanging=%v inflight=%d)",
			e.cfg.ID, e.cfg.Instance, e.Leader(), e.viewChanging, e.InFlight())
	}
	if b.SN != e.nextPropose {
		return fmt.Errorf("pbft: proposal SN %d != next %d", b.SN, e.nextPropose)
	}
	e.nextPropose++
	// Digest before broadcast: the simulator hands every receiver this same
	// pointer, and a block is read-only once it is shared — the lazy digest
	// cache is written here, by its owner, not by whichever receiver asks
	// first.
	b.Digest()
	m := &PrePrepare{Instance: e.cfg.Instance, View: e.view, Seq: b.SN, Block: b}
	switch {
	case e.leaderMuted():
		// Swallow the proposal: the sequence number is consumed, the window
		// fills, and the silent leader forces a view change downstream.
	case e.equivocating():
		e.equivocate(m)
	default:
		e.nw.Broadcast(e.cfg.ID, m)
	}
	return nil
}

// Handle processes a protocol message from replica from — the identity the
// transport authenticated, and the only one a message has. It reports false
// for a message it refuses whole (see admits); one that is merely of no use
// here — stale (old view, delivered sequence number) or out of reach
// (maxAhead) — is ignored and reports true.
func (e *Engine) Handle(from int, msg Message) bool {
	if !e.admits(from, msg) {
		return false
	}
	if e.stopped {
		return true
	}
	switch m := msg.(type) {
	case *PrePrepare:
		e.onPrePrepare(from, m)
	case *Prepare:
		e.onVote(from, false, m.View, m.Seq, m.Digest)
	case *Commit:
		e.onVote(from, true, m.View, m.Seq, m.Digest)
	case *ViewChange:
		e.onViewChange(m)
	case *NewView:
		e.onNewView(from, m)
	}
	return true
}

// admits is the one check of who sent a message and what it names; the
// handlers index the per-replica books by what passed it. Refused: a sender
// outside [0, N); a vote whose self-declared Replica is not its sender; a
// proposal, re-proposal or prepared certificate without the block of its
// own slot (validBlock). No honest replica sends any of them.
func (e *Engine) admits(from int, msg Message) bool {
	if from < 0 || from >= e.cfg.N {
		return false
	}
	switch m := msg.(type) {
	case *PrePrepare:
		return e.validBlock(m.Block, m.Seq)
	case *Prepare:
		return m.Replica == from
	case *Commit:
		return m.Replica == from
	case *ViewChange:
		for _, p := range m.Prepared {
			if !e.validBlock(p.Block, p.Seq) {
				return false
			}
		}
		return m.Replica == from
	case *NewView:
		for _, pp := range m.Reproposals {
			if !e.validBlock(pp.Block, pp.Seq) {
				return false
			}
		}
	}
	return true
}

// validBlock reports whether b can stand at sequence number seq of this
// instance. Delivery trusts a block's own (Instance, SN) — the replica's
// state vector and the global ordering index by them — so a block that
// names another slot is refused before it can prepare.
func (e *Engine) validBlock(b *types.Block, seq uint64) bool {
	return b != nil && b.Instance == e.cfg.Instance && b.SN == seq
}

// maxAhead is how far above the delivery cursor an engine holds slots, and
// how far from it a new leader's NewView reaches. A sequence number is a
// peer's word and sized both: one vote for sequence 2^62 used to exhaust the
// receiver's memory. What lies beyond is ignored like a stale message, so a
// replica that far behind parks nothing: it follows view changes, and votes
// again once state transfer (SkipDelivered) brings its cursor back in reach.
const maxAhead = 1 << 14

// inReach reports whether seq is undelivered and within maxAhead.
func (e *Engine) inReach(seq uint64) bool { return seq-e.nextDeliver < maxAhead }

// slotFor returns seq's slot, created on first mention; nil if out of reach.
func (e *Engine) slotFor(seq uint64) *slot {
	s := e.slots.get(seq)
	if s == nil && e.inReach(seq) {
		s = e.newSlot(e.view)
		e.slots.put(seq, s)
	}
	return s
}

func (e *Engine) onPrePrepare(from int, m *PrePrepare) {
	if m.View != e.view || e.viewChanging {
		return
	}
	if from != e.cfg.LeaderOf(m.View) {
		return // only the leader proposes
	}
	if m.Seq < e.nextDeliver {
		return // already delivered
	}
	s := e.slotFor(m.Seq)
	if s == nil || s.view != m.View {
		return
	}
	if s.block != nil {
		return // first proposal wins; honest leaders do not equivocate
	}
	s.block = m.Block
	s.digest = m.Block.Digest()
	s.prepares.setTally(s.digest)
	s.commits.setTally(s.digest)
	// Backups (and the leader itself) echo a prepare vote.
	if !e.cfg.Mute {
		p := &Prepare{Instance: e.cfg.Instance, View: m.View, Seq: m.Seq, Digest: s.digest, Replica: e.cfg.ID}
		e.nw.Broadcast(e.cfg.ID, p)
	}
	e.advance(m.Seq)
}

// onVote books replica from's prepare (or commit) vote for digest d at
// (view, seq): the vote is a bare digest, its owner is the sender.
func (e *Engine) onVote(from int, commit bool, view, seq uint64, d types.BlockID) {
	if view != e.view || e.viewChanging || seq < e.nextDeliver {
		return
	}
	s := e.slotFor(seq)
	if s == nil || s.view != view {
		return
	}
	votes := &s.prepares
	if commit {
		votes = &s.commits
	}
	if votes.add(from, d) {
		e.advance(seq)
	}
}

// advance re-evaluates a slot's phase transitions after new evidence.
func (e *Engine) advance(seq uint64) {
	s := e.slots.get(seq)
	if s == nil {
		return
	}
	if s.block != nil && !s.prepared {
		// Prepared: pre-prepare + 2f matching prepares (the leader's own
		// prepare counts as one of the 2f+1 total votes here since every
		// replica broadcasts a prepare on accepting the proposal).
		if s.prepares.countFor() >= Quorum(e.cfg.N, e.cfg.F) {
			s.prepared = true
			s.preparedView = s.view
			s.preparedBlock = s.block
			if !e.cfg.Mute {
				c := &Commit{Instance: e.cfg.Instance, View: s.view, Seq: seq, Digest: s.digest, Replica: e.cfg.ID}
				e.nw.Broadcast(e.cfg.ID, c)
			}
		}
	}
	if s.prepared && !s.committed {
		if s.commits.countFor() >= Quorum(e.cfg.N, e.cfg.F) {
			s.committed = true
		}
	}
	e.tryDeliver()
}

// tryDeliver delivers committed slots in sequence order.
func (e *Engine) tryDeliver() {
	for {
		s := e.slots.get(e.nextDeliver)
		if s == nil || !s.committed {
			return
		}
		e.deliverNext(s.block, s)
	}
}

// deliverNext delivers b as the decision at the cursor: the sequence's slot
// s (nil if it has none) is released, the window and cursor advance, the
// block joins the log and OnDeliver fires.
func (e *Engine) deliverNext(b *types.Block, s *slot) {
	e.log = append(e.log, b)
	e.slots.advanceBase()
	if s != nil {
		e.freeSlot(s)
	}
	e.nextDeliver++
	e.nextPropose = max(e.nextPropose, e.nextDeliver)
	e.timeoutMult = 1
	e.resetProgressTimer()
	if e.cfg.OnDeliver != nil {
		e.cfg.OnDeliver(b)
	}
}

// --- failure detection & view change ---

// resetProgressTimer re-arms the failure detector: the deadline moves to
// now + timeout, and a single in-flight wakeup event chases it. Moving the
// deadline costs nothing — a wakeup that fires early simply re-schedules
// itself at the current deadline — so a delivery-heavy run schedules one
// event per timeout interval per engine, not one per delivery.
func (e *Engine) resetProgressTimer() {
	if e.stopped || e.viewChanging || e.nextDeliver >= e.target {
		e.progressDeadline = 0
		return
	}
	e.progressDeadline = e.sim.Now() + types.Time(e.cfg.Timeout*e.timeoutMult)
	e.armProgressWakeup()
}

// armProgressWakeup guarantees an in-flight wakeup no later than the
// current deadline.
func (e *Engine) armProgressWakeup() {
	if e.progressDeadline == 0 {
		return
	}
	if e.progressWakeAt != 0 && e.progressWakeAt <= e.progressDeadline {
		return // an in-flight wakeup already covers the deadline
	}
	e.progressWakeAt = e.progressDeadline
	e.sim.CallAt(e.progressDeadline, progressFire, e, nil)
}

// progressFire is the detector's wakeup callback (top-level so CallAt
// schedules it without a closure allocation).
func progressFire(a, _ any) {
	e := a.(*Engine)
	if e.progressWakeAt == e.sim.Now() {
		e.progressWakeAt = 0 // this was the covering wakeup
	}
	if e.progressDeadline == 0 || e.stopped || e.viewChanging || e.nextDeliver >= e.target {
		return
	}
	if e.sim.Now() < e.progressDeadline {
		e.armProgressWakeup() // deadline moved forward; chase it
		return
	}
	e.startViewChange(e.view + 1)
}

// startViewChange broadcasts a view-change vote for newView.
func (e *Engine) startViewChange(newView uint64) {
	if newView <= e.view {
		return
	}
	e.viewChanging = true
	e.vcTarget = newView
	e.progressDeadline = 0
	var prepared []PreparedEntry
	for seq := e.slots.base; seq < e.slots.top; seq++ {
		if s := e.slots.get(seq); s != nil && seq >= e.nextDeliver && s.preparedBlock != nil {
			prepared = append(prepared, PreparedEntry{Seq: seq, View: s.preparedView, Block: s.preparedBlock})
		}
	}
	vc := &ViewChange{
		Instance:  e.cfg.Instance,
		NewView:   newView,
		Replica:   e.cfg.ID,
		Delivered: e.nextDeliver,
		Prepared:  prepared,
	}
	if !e.cfg.Mute {
		e.nw.Broadcast(e.cfg.ID, vc)
	} else {
		// A muted replica still tracks its own intent locally.
		e.onViewChange(vc)
	}
	// If the new view does not install in time, escalate further.
	e.timeoutMult *= 2
	e.vcGen++
	types.CallAfter(e.sim, e.cfg.Timeout*e.timeoutMult, escalateFire, e, e.vcGen)
}

// escalateFire is the view-change escalation timeout's callback.
func escalateFire(a, b any) {
	e := a.(*Engine)
	if b.(uint64) != e.vcGen || e.stopped || !e.viewChanging {
		return
	}
	e.startViewChange(e.vcTarget + 1)
}

// onViewChange books m as the vote of m.Replica — the authenticated sender
// (admits) or this replica itself — unless it voted that high already.
func (e *Engine) onViewChange(m *ViewChange) {
	if m.NewView <= e.view {
		return
	}
	if prev := e.vcVotes[m.Replica]; prev != nil && prev.NewView >= m.NewView {
		return
	}
	e.vcVotes[m.Replica] = m
	votes := 0
	for _, vc := range e.vcVotes {
		if vc != nil && vc.NewView == m.NewView {
			votes++
		}
	}

	// Join amplification: if f+1 replicas want a higher view, join them so
	// a correct replica never lags a view change indefinitely.
	if votes >= e.cfg.F+1 && (!e.viewChanging || m.NewView > e.vcTarget) {
		e.startViewChange(m.NewView)
	}

	// New leader installs the view with a quorum of view-change votes — a
	// leader-muted adversary withholds the NewView, extending the storm
	// until honest replicas escalate past it.
	if e.cfg.LeaderOf(m.NewView) == e.cfg.ID && votes >= Quorum(e.cfg.N, e.cfg.F) && !e.cfg.Mute && !e.leaderMuted() {
		e.sendNewView(m.NewView)
	}
}

// retainedBlock returns the block this replica delivered at seq, if seq is
// among its last RetainDelivered deliveries and the log still holds it.
func (e *Engine) retainedBlock(seq uint64) *types.Block {
	if seq < e.logBase || seq >= e.nextDeliver || e.nextDeliver-seq > RetainDelivered {
		return nil
	}
	return e.log[seq-e.logBase]
}

// sendNewView assembles re-proposals from the collected view changes: for
// each undecided sequence number, the prepared block from the highest view
// wins. A sequence number without a certificate is filled with the block
// the leader itself delivered there (retainedBlock) if it has one, with a
// no-op if no replica in the vote set delivered it (then a no-op cannot
// conflict with anything), and is otherwise skipped: certificates are
// discarded at delivery, so a seq below some replica's delivered prefix can
// legitimately have no certificate in the vote set, and a no-op there would
// let laggards commit a block conflicting with what the rest of the group
// already executed. Skipping leaves the laggard's gap in place until its
// state-transfer catch-up replays the block, or a leader whose log covers
// the seq rotates in. The votes are read in replica order,
// so among certificates of equal view the lowest-numbered voter's wins. The
// fill stays within maxAhead of the leader's own cursor, where it can log
// or slot anything: the votes' Delivered and Prepared.Seq must not size it.
func (e *Engine) sendNewView(view uint64) {
	minDelivered := ^uint64(0)
	maxDelivered := uint64(0)
	maxSeq := uint64(0)
	havePrepared := make(map[uint64]PreparedEntry)
	for _, vc := range e.vcVotes {
		if vc == nil || vc.NewView != view {
			continue
		}
		minDelivered = min(minDelivered, vc.Delivered)
		maxDelivered = max(maxDelivered, vc.Delivered)
		for _, p := range vc.Prepared {
			maxSeq = max(maxSeq, p.Seq+1)
			if prev, ok := havePrepared[p.Seq]; !ok || p.View > prev.View {
				havePrepared[p.Seq] = p
			}
		}
	}
	nv := &NewView{Instance: e.cfg.Instance, View: view}
	lo := max(minDelivered, e.nextDeliver-min(e.nextDeliver, maxAhead))
	hi := min(max(maxSeq, maxDelivered), e.nextDeliver+maxAhead)
	for seq := lo; seq < hi; seq++ {
		var b *types.Block
		if p, ok := havePrepared[seq]; ok {
			b = p.Block
		} else if rb := e.retainedBlock(seq); rb != nil {
			b = rb
		} else if seq >= maxDelivered {
			b = e.cfg.MakeNoop(seq)
		} else {
			continue // delivered somewhere, unprovable here: leave the gap
		}
		// Digest before broadcast (see Propose): fresh noop fills would
		// otherwise be digested by whichever receiver asks first.
		b.Digest()
		nv.Reproposals = append(nv.Reproposals, &PrePrepare{
			Instance: e.cfg.Instance, View: view, Seq: seq, Block: b,
		})
	}
	e.nw.Broadcast(e.cfg.ID, nv)
}

func (e *Engine) onNewView(from int, m *NewView) {
	if m.View <= e.view {
		return
	}
	if from != e.cfg.LeaderOf(m.View) {
		return
	}
	// Install the new view: reset undecided slots and replay re-proposals.
	e.view = m.View
	e.viewChanging = false
	e.vcGen++
	for r, vc := range e.vcVotes {
		if vc != nil && vc.NewView <= m.View {
			e.vcVotes[r] = nil // dead: release the blocks it certifies
		}
	}
	for seq := e.slots.base; seq < e.slots.top; seq++ {
		s := e.slots.get(seq)
		if s == nil || seq < e.nextDeliver {
			continue
		}
		// Preserve the local prepared certificate (safety across views)
		// while resetting vote state for the new view. The old slot is
		// reset in place rather than pooled-and-replaced: nothing else
		// holds a reference to it.
		pv, pb := s.preparedView, s.preparedBlock
		s.reset(m.View, e.cfg.N)
		s.preparedView, s.preparedBlock = pv, pb
	}
	for _, pp := range m.Reproposals {
		// Out of reach: skipped alone, before it moves nextPropose to where
		// no later view's fill could follow.
		if e.inReach(pp.Seq) {
			e.nextPropose = max(e.nextPropose, pp.Seq+1)
			e.onPrePrepare(from, pp)
		}
	}
	e.resetProgressTimer()
	if e.cfg.OnViewChange != nil {
		e.cfg.OnViewChange(e.view, e.Leader())
	}
}
