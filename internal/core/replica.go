package core

import (
	"crypto/sha256"
	"slices"
	"time"

	"repro/internal/ledger"
	"repro/internal/order"
	"repro/internal/partition"
	"repro/internal/pbft"
	"repro/internal/types"
)

// Config parameterizes one replica.
type Config struct {
	N  int // replicas
	F  int // fault threshold
	ID int // this replica
	M  int // worker SB instances (paper: m = n)

	Mode Mode

	// Params are the knobs that must be equal on every replica.
	Params

	// ByzantineMute makes this replica vote only in the instance it leads
	// (the undetectable fault of Sec. VII-E).
	ByzantineMute bool

	// Censor is a Byzantine fault-injection hook: when this replica leads
	// an instance, it silently skips transactions the predicate matches.
	// Honest configurations leave it nil; SetCensorAll swaps it at runtime.
	Censor func(tx *types.Transaction) bool

	// SB overrides the sequenced-broadcast implementation; nil selects
	// message-level PBFT over the replica's Network.
	SB SBBuilder

	// Genesis initializes the ledger (same on every replica).
	Genesis func(st *ledger.Store)

	// Resolver resolves the replica's transactions and issues its ledger
	// handles. Replicas of one process may share one built for their
	// configuration (NewResolver); the simulator's do. Nil gives the
	// replica a private one, as a real replica has.
	Resolver *Resolver

	// OnConfirm fires once per transaction when this replica confirms it
	// (executed successfully or aborted), with the transaction's stage
	// trace; st.Confirmed is the time of the confirmation.
	OnConfirm func(tx *types.Transaction, success bool, st StageTrace)
	// OnViewChange fires when an instance installs a new view.
	OnViewChange func(instance int, view uint64, at types.Time)
	// OnBlockDeliver fires on every worker-instance SB delivery, before the
	// block executes. The safety property suite records (instance, SN,
	// digest) triples through it to assert no two honest replicas ever
	// deliver conflicting blocks; nil costs nothing.
	OnBlockDeliver func(instance int, b *types.Block)
}

// StageTrace holds the five per-transaction timestamps of the paper's
// latency breakdown (Fig. 6), as one replica saw them. Received is zero
// when the replica only ever met the transaction inside a block.
type StageTrace struct {
	Submit    types.Time // client handed the tx to the system (tx.SubmitNS)
	Received  types.Time // replica received and bucketed it
	Proposed  types.Time // first included in a broadcast block
	Delivered types.Time // first SB delivery (partial order reached)
	Confirmed types.Time // executed/aborted (global order if applicable)
}

// CheckpointMsg is the end-of-epoch checkpoint broadcast (Sec. V-D).
type CheckpointMsg struct {
	Epoch   uint64
	Digest  [32]byte
	Replica int
}

// SubmitMsg carries a client transaction over a transport to a replica's
// message handler. The simulated cluster bypasses it (clients invoke
// SubmitTx through scheduled events); real transports, where clients are
// separate goroutines or processes, deliver submissions like any other
// message so they serialize with the replica's event loop.
type SubmitMsg struct {
	Tx *types.Transaction
}

// Replica is one Multi-BFT node: it participates in all SB instances,
// leads the instance(s) whose current view maps to it, and executes the
// resulting partial and global logs.
type Replica struct {
	cfg Config
	// sim is the replica's clock. Under the simulator it is the node-pinned
	// scheduling view simnet.On(sim, ID): proposal pulses and timers stamp
	// this node's canonical key. On real transports it is the replica's
	// transport.Node.
	sim types.Clock
	nw  types.Network

	sbs     []SB // M worker SB instances (+1 sequencer if enabled)
	buckets *partition.Set
	store   *ledger.Store
	global  GlobalOrdering
	rank    order.RankTracker
	state   types.StateVector // delivered blocks per worker instance

	// execState counts escrow-phased (executed) blocks per instance; blocks
	// escrow-phase only once execState covers their referenced state b.S.
	execState types.StateVector
	// execQ[i] with execQhead[i] form a head-indexed deque of delivered
	// blocks awaiting their escrow phase: consuming advances the head and
	// a fully drained queue rewinds to its backing array instead of
	// sliding off it, so steady-state delivery appends allocate nothing.
	execQ     [][]*types.Block
	execQhead []int
	// execQocc marks instances with a non-empty execQ (bit per instance):
	// the escrow fixed point visits only live queues instead of scanning
	// all M per delivery.
	execQocc []uint64
	// glogQ with glogHead is the same deque shape for globally confirmed
	// blocks awaiting in-order execution.
	glogQ    []glogCursor
	glogHead int

	// promised tracks, per ledger account handle, the amount this replica
	// (as leader) has promised in proposed-but-not-yet-executed blocks, so
	// feasibility validation of new batches does not double-spend a payer
	// across pipelined blocks. It covers every handle a tracker resolved.
	promised []types.Amount

	// Per-transaction state is addressed by slot: the resolver resolves a
	// transaction once per content, and its slot indexes both the
	// replica's buckets.Table() record and its tracker in trk. Every step
	// that meets the transaction (SubmitTx, delivery, escrow, the global
	// log) finds the slot through track, which reads the transaction's
	// memo; no slot travels beside a block. release lists the finished
	// trackers the next checkpoint GC frees; escrowedHi holds the escrow
	// bits of routes longer than 64 entries.
	resolver   *Resolver
	trk        [][]txTracker
	release    []partition.Slot
	escrowedHi map[partition.Slot][]uint64

	seqRefs []types.BlockRef // refs awaiting sequencer proposal

	// Epoch & checkpoint state.
	epoch       uint64 // current epoch (delivery obligation)
	stableEpoch uint64 // epochs with a stable checkpoint
	// ckptVotes[r] is replica r's one checkpoint vote, for the highest epoch
	// it has voted on: a newer vote overwrites the older one, so the book
	// holds N entries no matter how many far-future epoch numbers a faulty
	// replica spams (the bound pbft's vcVotes carries, kept the same way).
	ckptVotes []ckptVote
	// ckptSent is one past the highest epoch this replica has broadcast a
	// checkpoint for. maybeFinishEpoch only ever finishes r.epoch, which is
	// monotone, so a watermark replaces the old unbounded sent-set.
	ckptSent uint64
	instHash [][32]byte // rolling digest of delivered blocks per instance
	// bound[e][i] snapshots instHash[i] the moment instance i delivered the
	// last block of epoch e — the canonical per-instance boundary hash.
	// Epoch digests hash these snapshots, never the live instHash, so two
	// replicas that delivered the same epoch agree on its digest regardless
	// of how far either has run ahead. Pruned by gcEpoch; the stable
	// boundary itself is retained for CheckpointCert responses.
	bound map[uint64][][32]byte
	// pend records the highest checkpoint quorum (live = there is one) this
	// replica has observed but not yet matched locally (behind, or
	// diverged). Delivery re-checks it at every epoch boundary; on
	// divergence it also triggers a catch-up request.
	pend ckptVote

	// State-transfer catch-up (statetransfer.go). The blocks it serves are
	// the SB instances' own delivered-block logs, trimmed by gcEpoch.
	// stResps[r] is peer r's answer to the current catch-up request,
	// collected until enough arrive to apply; the book is cleared on every
	// new request and at every stabilization.
	stResps []*StateTransferResp
	// stReqEpoch is one past the highest quorum epoch a lag-triggered
	// catch-up request has been sent for (0: none yet, so epoch 0's quorum
	// triggers one too): a laggard re-requests at most once per epoch
	// while checkpoint quorums keep arriving for epochs it has not
	// finished (each round closes the gap to the then-tip; the next
	// epoch's quorum mops up whatever committed during the round trip).
	stReqEpoch uint64
	// stApplied counts blocks applied through catch-up (tests assert a
	// recovered replica repaired its gap without pre-checkpoint replay).
	stApplied uint64

	stalledUntil types.Time // Mir-style global stall deadline

	// lastComplain remembers, per instance, one past the view this replica
	// last complained about (0 = never), so the censorship detector votes
	// once per view.
	lastComplain []uint64

	// adversary holds this replica's Byzantine behavior switches; every
	// PBFT engine of the replica shares a pointer to it, so a scenario
	// event flips the behavior across all instances the replica leads.
	adversary pbft.Adversary

	// Counters.
	confirmedOK  uint64
	confirmedBad uint64
	rejected     uint64 // see Rejected
	stopped      bool
	// pulseGen invalidates in-flight pulse loops across Stop/Recover cycles
	// so a quick recovery does not leave two loops running per instance.
	pulseGen uint64
	// pulseScale multiplies this replica's proposal pulse: a straggler's
	// dilation, set only by SetPulseScale (1 is normal speed).
	pulseScale float64
	// pulseSlots back the closure-free pulse events: one per SB instance,
	// allocated once, carried as the CallAfter operand for every pulse of
	// that instance (the generation rides in the other operand).
	pulseSlots []pulseSlot
	// cutBuf and rejectBuf are cut's scratch: the entries it peeked (and
	// the batch, filtered in place) and those it sends back to the bucket.
	cutBuf, rejectBuf []partition.Entry
	// early counts the proposals proposeDrained made (EarlyProposals).
	early uint64
	// viewDelivered[i] records that worker instance i has delivered a block
	// since its current view installed (proposeDrained's first-block guard).
	viewDelivered []bool
}

// pulseSlot names one instance's pulse loop for the closure-free
// scheduler events.
type pulseSlot struct {
	r        *Replica
	instance int
}

// NewReplica builds a replica attached to a network (simnet.Network in the
// simulator, a transport.Proc or transport.TCP on real links). Call Start
// to begin proposing. The same Config (except ID) must be used everywhere.
func NewReplica(cfg Config, sim types.Clock, nw types.Network) *Replica {
	if cfg.M <= 0 {
		cfg.M = cfg.N
	}
	cfg.Params = cfg.Params.WithDefaults()
	if cfg.Resolver == nil {
		cfg.Resolver = NewResolver(cfg)
	} else if !cfg.Resolver.fits(cfg) {
		panic("core: a replica's Resolver was built for another M or mode")
	}
	r := &Replica{
		cfg:          cfg,
		sim:          sim,
		nw:           nw,
		buckets:      partition.NewSet(cfg.M),
		store:        ledger.NewStoreIn(cfg.Resolver.dir),
		resolver:     cfg.Resolver,
		global:       cfg.Mode.NewGlobal(cfg.M),
		state:        make(types.StateVector, cfg.M),
		execState:    make(types.StateVector, cfg.M),
		execQ:        make([][]*types.Block, cfg.M),
		execQhead:    make([]int, cfg.M),
		execQocc:     make([]uint64, (cfg.M+63)/64),
		ckptVotes:    make([]ckptVote, cfg.N),
		instHash:     make([][32]byte, cfg.M),
		bound:        make(map[uint64][][32]byte),
		lastComplain: make([]uint64, cfg.M),
		pulseScale:   1,

		viewDelivered: make([]bool, cfg.M),
	}
	r.stResps = make([]*StateTransferResp, cfg.N)
	if cfg.Genesis != nil {
		cfg.Genesis(r.store)
	}
	nInst := cfg.M
	if cfg.Mode.Sequencer {
		nInst++
	}
	build := cfg.SB
	if build == nil {
		build = r.pbftBuilder()
	}
	r.sbs = make([]SB, nInst)
	r.pulseSlots = make([]pulseSlot, nInst)
	for i := range r.pulseSlots {
		r.pulseSlots[i] = pulseSlot{r: r, instance: i}
	}
	for i := 0; i < nInst; i++ {
		i := i
		hooks := SBHooks{
			OnDeliver:    func(b *types.Block) { r.onDeliver(i, b) },
			OnViewChange: func(view uint64, leader int) { r.onViewChange(i, view) },
			MakeNoop: func(sn uint64) *types.Block {
				// No-op fills carry a fresh rank so the dynamic ordering's
				// floor keeps advancing past a replaced leader's gap.
				return &types.Block{Instance: i, SN: sn, Rank: r.rank.Highest() + 1}
			},
		}
		r.sbs[i] = build(i, hooks)
	}
	nw.Register(cfg.ID, r.handle)
	return r
}

// pbftBuilder returns the default SBBuilder: message-level PBFT engines
// sharing this replica's network endpoint.
func (r *Replica) pbftBuilder() SBBuilder {
	return func(instance int, hooks SBHooks) SB {
		ecfg := pbft.Config{
			N: r.cfg.N, F: r.cfg.F, ID: r.cfg.ID, Instance: instance,
			Window:       r.cfg.Window,
			Timeout:      r.cfg.ViewTimeout,
			MakeNoop:     hooks.MakeNoop,
			OnDeliver:    hooks.OnDeliver,
			OnViewChange: hooks.OnViewChange,
			// A Byzantine selective-participation replica votes only in the
			// instance it initially leads (instance index == replica ID).
			Mute:      r.cfg.ByzantineMute && instance != r.cfg.ID,
			Adversary: &r.adversary,
		}
		return pbft.New(ecfg, r.nw, r.sim)
	}
}

// handle is the network-facing message dispatcher and — with
// pbft.Engine.Handle for the messages that package owns — the one place a
// sender is checked: from is the identity the transport authenticated, the
// only one a message has. Senders outside [0, N) are clients and may only
// submit; a peer message whose self-declared Replica is not from never
// reaches a handler, so the books the handlers keep per replica are indexed
// by a checked id. What is refused is dropped whole and counted (Rejected).
func (r *Replica) handle(from int, msg any) {
	if r.stopped {
		return
	}
	peer, ok := from >= 0 && from < r.cfg.N, false
	switch m := msg.(type) {
	case *SubmitMsg:
		ok = m.Tx != nil && r.SubmitTx(m.Tx) == nil
	case pbft.Message:
		i := m.PBFTInstance()
		ok = peer && i >= 0 && i < len(r.sbs) && r.sbs[i].Handle(from, m)
	case *CheckpointMsg:
		if ok = peer && m.Replica == from; ok {
			r.onCheckpoint(m)
		}
	case *StateTransferReq:
		ok = peer && m.Replica == from && r.onStateTransferReq(m)
	case *StateTransferResp:
		ok = peer && m.Replica == from && r.onStateTransferResp(m)
	}
	if !ok {
		r.rejected++
	}
}

// Rejected counts the messages handle refused: misattributed, malformed or
// from outside the group. An honest cluster keeps it at zero — what is
// merely of no use here (stale, or beyond an engine's reach) is not counted.
func (r *Replica) Rejected() uint64 { return r.rejected }

// Start arms failure detection and begins the proposal pulse loops.
func (r *Replica) Start() {
	for i := range r.sbs {
		if uint64(i) < uint64(r.cfg.M) {
			r.sbs[i].SetTarget(r.cfg.EpochLen)
		}
		r.schedulePulse(i)
	}
}

// Stop halts the replica (crash). Engines ignore further events.
func (r *Replica) Stop() {
	r.stopped = true
	r.pulseGen++
	for _, e := range r.sbs {
		e.Stop()
	}
}

// Recover restarts a stopped replica: SB engines resume handling messages
// and the proposal pulse loops restart. The replica rejoins consensus
// voting for new sequence numbers immediately and broadcasts a catch-up
// request; peers answer with the latest stable CheckpointCert plus the
// delivered blocks past this replica's own prefix — the gap repairs by
// replaying only those blocks, never pre-checkpoint history. Engines that
// do not support resumption (the analytic SB) are left stopped.
func (r *Replica) Recover() {
	if !r.stopped {
		return
	}
	r.stopped = false
	r.pulseGen++
	for i := range r.sbs {
		r.sbs[i].Resume()
		r.schedulePulse(i)
	}
	r.requestStateTransfer()
}

// SetEquivocate switches the replica's equivocating-leader behavior at
// runtime (scenario attack injection): from the next proposal on, every
// block it leads is proposed in two conflicting versions to disjoint
// replica halves. The flag is shared by all of the replica's PBFT engines.
func (r *Replica) SetEquivocate(on bool) { r.adversary.Equivocate = on }

// SetMuteLeader silences (or restores) the replica's leader role at
// runtime: proposals and NewView messages are swallowed while votes
// continue, forcing view changes in every instance it leads.
func (r *Replica) SetMuteLeader(on bool) { r.adversary.MuteLeader = on }

// SetCensorAll makes the replica censor every pending transaction while
// leading (or stops doing so): it keeps proposing empty blocks, so only
// the bucket-aging censorship detector at honest replicas can rotate it
// out.
func (r *Replica) SetCensorAll(on bool) {
	r.cfg.Censor = nil
	if on {
		r.cfg.Censor = func(*types.Transaction) bool { return true }
	}
}

// SetPulseScale changes the replica's proposal-pulse multiplier (straggler
// injection): the next scheduled pulse picks it up, so called before Start
// it dilates the first pulse too. Scale 1 restores normal speed.
func (r *Replica) SetPulseScale(scale float64) {
	if scale <= 0 {
		scale = 1
	}
	r.pulseScale = scale
}

// EarlyProposals counts the blocks this replica proposed when its
// instance's pipeline drained, ahead of the pulse (proposeDrained).
func (r *Replica) EarlyProposals() uint64 { return r.early }

// Store exposes the ledger for examples and invariant checks.
func (r *Replica) Store() *ledger.Store { return r.store }

// State returns the replica's current state vector (copy).
func (r *Replica) State() types.StateVector { return r.state.Clone() }

// Confirmed returns (successes, aborts) counted so far.
func (r *Replica) Confirmed() (ok, failed uint64) { return r.confirmedOK, r.confirmedBad }

// PendingGlobal returns blocks delivered but not yet globally confirmed.
func (r *Replica) PendingGlobal() int { return r.global.PendingCount() }

// SubmitTx receives a client transaction (already transported; the cluster
// layer models client-to-replica delay). Submit time travels in tx.SubmitNS.
func (r *Replica) SubmitTx(tx *types.Transaction) error {
	if r.stopped {
		return nil
	}
	if err := tx.Validate(); err != nil {
		return err
	}
	t := r.track(tx)
	route := r.route(t)
	for _, i := range route {
		r.buckets.Bucket(int(i)).PushSlot(tx, t.slot)
	}
	if t.received == 0 {
		t.received = r.sim.Now()
	}
	for _, i := range route {
		r.proposeDrained(int(i))
	}
	return nil
}

// --- proposal pulses ---

func (r *Replica) schedulePulse(instance int) {
	d := time.Duration(float64(r.cfg.BatchTimeout) * r.pulseScale)
	if r.cfg.ByzantineMute {
		// The undetectable Byzantine behavior of Sec. VII-E: keep proposing
		// in the led instance, but only just often enough to stay under the
		// failure detector's timeout — the instance crawls without ever
		// triggering a view change.
		d = r.cfg.ViewTimeout * 4 / 5
	}
	// Closure-free: the pulse slot and generation ride in the pooled
	// event's operands, so a steady proposal pulse allocates nothing.
	types.CallAfter(r.sim, d, pulseFire, &r.pulseSlots[instance], r.pulseGen)
}

// pulseFire is the pulse-loop callback (top-level so CallAfter schedules
// it without a closure allocation). A stale generation — the replica
// stopped or recovered since this pulse was scheduled — makes it a no-op,
// so Stop/Recover cycles never leave two loops running on one instance.
func pulseFire(a, b any) {
	p := a.(*pulseSlot)
	r := p.r
	if r.stopped || b.(uint64) != r.pulseGen {
		return
	}
	r.pulse(p.instance)
	r.schedulePulse(p.instance)
}

// pulse attempts one proposal on an instance this replica currently leads:
// a block of whatever the bucket holds, an empty one included (the empty
// block is the instance's heartbeat).
func (r *Replica) pulse(instance int) {
	if !r.mayPropose(instance) {
		return
	}
	if instance == r.cfg.M {
		r.pulseSequencer(r.sbs[instance])
		return
	}
	batch, _ := r.cut(instance, 0)
	r.propose(instance, batch)
}

// proposeDrained is the drained-pipeline proposal: a leader whose worker
// instance has nothing in flight proposes as soon as the instance's bucket
// holds a block's worth, instead of idling until its pulse. It is checked
// at both moments that can make it true: a delivery that drains the
// pipeline (onDeliver) and a submission that fills the bucket (SubmitTx).
//   - The batch must hold at least n² transactions: a block costs about 2n²
//     agreement messages, so the floor keeps them at about two per
//     transaction, and the pulse stays both the latency bound and the
//     empty-block heartbeat.
//   - The instance must be level with the replica's slowest worker
//     instance: a hot bucket that proposed at consensus speed would run
//     ahead of the pulse-driven instances, and its blocks would wait for
//     theirs in the global order and at the epoch run-ahead bound.
//   - A lockstep order (StrictEpochBarrier: ISS, Mir) keeps the pulse: its
//     global log takes the instances' blocks round-robin by sequence
//     number, so a block proposed early leaves the instance's later blocks
//     on sequence numbers the others reach a pulse later.
//   - The instance must have delivered a block in its current view: the
//     pulse makes a new view's first proposal, because an engine drops a
//     proposal for a view it has not installed yet, and a proposal sent
//     right after the NewView can overtake it on a reordering link.
//   - Only an honest full-speed leader does it: a straggler is modelled by
//     its dilated pulse and a ByzantineMute leader by its crawl, each of
//     which an early proposal would cut short.
//
// The cheap tests run first, since every submission comes here. "Nothing
// in flight" is the engine's next sequence number equal to the replica's
// delivered count, not InFlight, which the analytic SB does not model (it
// reports 0).
func (r *Replica) proposeDrained(instance int) {
	floor := r.cfg.N * r.cfg.N
	e := r.sbs[instance]
	if r.buckets.Bucket(instance).Len() < floor || !e.IsLeader() ||
		r.pulseScale != 1 || r.cfg.ByzantineMute || r.cfg.Mode.StrictEpochBarrier ||
		!r.viewDelivered[instance] || e.NextProposeSeq() != r.state[instance] ||
		r.state[instance] != slices.Min(r.state) || !r.mayPropose(instance) {
		return
	}
	if batch, ok := r.cut(instance, floor); ok {
		r.early++
		r.propose(instance, batch)
	}
}

// mayPropose reports whether this replica may propose on instance now: it
// leads it with room in the pipeline window, no Mir-style global stall
// holds (view change), and a worker instance is not held at an epoch
// barrier.
func (r *Replica) mayPropose(instance int) bool {
	if !r.sbs[instance].CanPropose() || r.sim.Now() < r.stalledUntil {
		return false
	}
	return instance == r.cfg.M || !r.epochPaused(instance)
}

// cut is pullValidTx (Algorithm 1 line 6): it takes the oldest transactions
// of the instance's bucket whose payer legs on this instance are feasible
// under the current executed state, accounting for debits already promised
// in pipelined blocks and earlier in this batch, and promises their debits.
// Censored and infeasible transactions go back to the bucket's tail and
// keep their age: their funds may arrive via a credit from another
// instance. When fewer than floor transactions pass, cut leaves the bucket
// and the promises as they were and reports false. The batch lives in a
// scratch buffer that the next cut reuses.
func (r *Replica) cut(instance, floor int) ([]partition.Entry, bool) {
	bucket := r.buckets.Bucket(instance)
	peeked := bucket.PeekEntries(r.cutBuf[:0], r.cfg.BatchSize)
	r.cutBuf = peeked
	batch, rejected := peeked[:0], r.rejectBuf[:0]
	for _, q := range peeked {
		if r.cfg.Censor != nil && r.cfg.Censor(q.Tx) {
			rejected = append(rejected, q) // Byzantine: silently skip
			continue
		}
		if res := r.queued(q); r.legFeasible(q.Tx, res, instance) {
			r.promiseDebits(q.Tx, res, instance, 1)
			batch = append(batch, q)
		} else {
			rejected = append(rejected, q)
		}
	}
	r.rejectBuf = rejected
	if len(batch) < floor {
		for _, q := range batch {
			r.promiseDebits(q.Tx, r.queued(q), instance, -1)
		}
		return nil, false
	}
	bucket.Drop(len(peeked))
	for _, q := range rejected {
		bucket.PushSlot(q.Tx, q.Slot)
	}
	return batch, true
}

// propose broadcasts batch as the instance's next block.
func (r *Replica) propose(instance int, batch []partition.Entry) {
	e := r.sbs[instance]
	b := &types.Block{
		Instance:  instance,
		SN:        e.NextProposeSeq(),
		Rank:      r.rank.Highest() + 1,
		State:     r.execState.Clone(),
		Txs:       make([]types.Transaction, 0, len(batch)),
		Proposer:  r.cfg.ID,
		ProposeNS: int64(r.sim.Now()),
	}
	for _, q := range batch {
		b.Txs = append(b.Txs, *q.Tx)
	}
	r.rank.Observe(b.Rank)
	_ = e.Propose(b) // mayPropose was checked; a race-free sim cannot fail here
}

// queued returns the resolution of a bucket entry: its slot's, which the
// table record queueing it keeps alive even when stray occurrences (a
// Byzantine leader proposing it off its route) let checkpoint GC release
// its tracker.
func (r *Replica) queued(e partition.Entry) *resolution { return r.resolver.at(e.Slot) }

// legFeasible reports whether the payer operations of tx that run on the
// given instance could escrow under the current executed state, minus the
// debits this leader has already promised elsewhere.
func (r *Replica) legFeasible(tx *types.Transaction, res *resolution, instance int) bool {
	for i, op := range tx.Ops {
		if !op.IsPayerOp() || res.leg(i) != instance {
			continue // not a leg this instance validates
		}
		if a := res.handle(i); r.store.BalanceOf(a)-r.promised[a]-op.Amount < op.Con {
			return false
		}
	}
	return true
}

// promiseDebits reserves (sign 1) the batch's debits against future
// feasibility checks until the block executes, or withdraws (sign -1) a
// reservation of a batch that is not proposed after all.
func (r *Replica) promiseDebits(tx *types.Transaction, res *resolution, instance int, sign types.Amount) {
	for i, op := range tx.Ops {
		if op.IsPayerOp() && res.leg(i) == instance {
			r.promised[res.handle(i)] += sign * op.Amount
		}
	}
}

// releaseProposedDebits undoes promiseDebits once a self-proposed block has
// reached its escrow phase (the real escrow now holds the funds).
func (r *Replica) releaseProposedDebits(b *types.Block) {
	for i := range b.Txs {
		tx := &b.Txs[i]
		res := r.res(r.track(tx))
		for j, op := range tx.Ops {
			if !op.IsPayerOp() || res.leg(j) != b.Instance {
				continue
			}
			a := res.handle(j)
			r.promised[a] = max(r.promised[a]-op.Amount, 0)
		}
	}
}

// pulseSequencer proposes a DQBFT ordering block referencing delivered
// worker blocks in arrival order.
func (r *Replica) pulseSequencer(e SB) {
	if len(r.seqRefs) == 0 {
		return
	}
	b := &types.Block{
		Instance:  r.cfg.M,
		SN:        e.NextProposeSeq(),
		Refs:      r.seqRefs,
		Proposer:  r.cfg.ID,
		ProposeNS: int64(r.sim.Now()),
	}
	r.seqRefs = nil
	_ = e.Propose(b)
}

// epochLead is how many epochs past the stable checkpoint an instance may
// propose when the mode has no strict barrier.
const epochLead = 4

// epochPaused reports whether the instance must wait at an epoch barrier.
func (r *Replica) epochPaused(instance int) bool {
	delivered := r.state[instance]
	if r.cfg.Mode.StrictEpochBarrier {
		// May not propose past the current epoch's allotment until every
		// instance finished it (checkpoint advances r.epoch).
		return delivered >= (r.epoch+1)*r.cfg.EpochLen &&
			uint64(r.sbs[instance].NextProposeSeq()) >= (r.epoch+1)*r.cfg.EpochLen
	}
	// Bounded run-ahead: at most epochLead epochs past the stable one.
	limit := (r.stableEpoch + epochLead) * r.cfg.EpochLen
	return r.sbs[instance].NextProposeSeq() >= limit
}

// --- delivery path ---

// onDeliver handles an SB delivery (Algorithm 1's sb-deliver upcall).
func (r *Replica) onDeliver(instance int, b *types.Block) {
	if instance == r.cfg.M {
		// Dedicated sequencer block: drives DQBFT global confirmation. No
		// checkpoint covers the sequencer, so its log keeps only what a
		// NewView re-proposes.
		if b.SN >= pbft.RetainDelivered {
			r.sbs[instance].ReleaseBelow(b.SN + 1 - pbft.RetainDelivered)
		}
		r.enqueueGlobal(r.global.OnSequencerDeliver(b))
		r.drainGlogQueue()
		return
	}
	if r.cfg.OnBlockDeliver != nil {
		r.cfg.OnBlockDeliver(instance, b)
	}
	r.state[instance] = b.SN + 1
	r.viewDelivered[instance] = true
	r.rank.Observe(b.Rank)
	// Fold the block into the instance's rolling checkpoint digest. The
	// concatenation runs through a stack buffer and the one-shot Sum256 —
	// byte-identical to hashing the two writes through a streaming digest,
	// without its allocations.
	var fold [64]byte
	copy(fold[:32], r.instHash[instance][:])
	d := b.Digest()
	copy(fold[32:], d[:])
	r.instHash[instance] = sha256.Sum256(fold[:])
	if (b.SN+1)%r.cfg.EpochLen == 0 {
		// Epoch boundary: snapshot the canonical per-instance hash (see the
		// bound field). Boundaries below the stable floor were already
		// checkpointed and pruned; re-recording them would only leak.
		if e := (b.SN+1)/r.cfg.EpochLen - 1; e+1 >= r.stableEpoch {
			bd, ok := r.bound[e]
			if !ok {
				bd = make([][32]byte, r.cfg.M)
				r.bound[e] = bd
			}
			bd[instance] = r.instHash[instance]
		}
	}

	// Intern the block's transactions, stamp their first proposal and
	// delivery, and mark them in-flight so replaced leaders do not
	// re-propose them from their bucket copies.
	bucket := r.buckets.Bucket(instance)
	now := r.sim.Now()
	for i := range b.Txs {
		t := r.track(&b.Txs[i])
		bucket.MarkConfirmedSlot(t.slot)
		if t.delivered == 0 {
			t.proposed, t.delivered = types.Time(b.ProposeNS), now
		}
	}
	// Censorship detection (Sec. V-B): the leader keeps delivering blocks
	// while an old, locally feasible transaction sits unproposed in this
	// bucket — complain (vote for a view change), once per view.
	bucket.Tick()
	if e, age, ok := bucket.Oldest(); ok && age > r.cfg.CensorshipBlocks && r.legFeasible(e.Tx, r.queued(e), instance) {
		view := r.sbs[instance].View()
		if last := r.lastComplain[instance]; last < view+1 {
			r.lastComplain[instance] = view + 1
			r.sbs[instance].Complain()
		}
	}

	// Queue the block for its escrow phase (gated on state coverage) and
	// feed the global ordering; whatever became globally confirmed joins
	// the in-order global execution queue.
	r.execQ[instance] = append(r.execQ[instance], b)
	r.execQocc[instance>>6] |= 1 << uint(instance&63)
	r.enqueueGlobal(r.global.OnWorkerDeliver(b))
	r.drainExecQueues()

	// DQBFT: the sequencer leader queues a reference for ordering.
	if r.cfg.Mode.Sequencer && r.sbs[r.cfg.M].IsLeader() {
		r.seqRefs = append(r.seqRefs, types.BlockRef{Instance: instance, SN: b.SN})
	}

	r.maybeFinishEpoch()
	r.proposeDrained(instance)
}

// onViewChange reacts to a new view: the instance proposes early again only
// after it delivers in the view (proposeDrained), and Mir stalls everything
// for one timeout.
func (r *Replica) onViewChange(instance int, view uint64) {
	if instance < r.cfg.M {
		r.viewDelivered[instance] = false
	}
	if instance < r.cfg.M && r.sbs[instance].Leader() != r.cfg.ID {
		// Lost leadership: un-delivered promises of that instance may never
		// execute. Dropping all promised debits is conservative for other
		// instances but only over-admits transactions, which the escrow
		// abort path handles deterministically.
		clear(r.promised)
	}
	if r.cfg.Mode.EpochStallOnViewChange {
		until := r.sim.Now() + types.Time(r.cfg.ViewTimeout)
		if until > r.stalledUntil {
			r.stalledUntil = until
		}
	}
	if r.cfg.OnViewChange != nil {
		r.cfg.OnViewChange(instance, view, r.sim.Now())
	}
}
