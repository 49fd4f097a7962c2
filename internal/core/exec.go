package core

import (
	"math/bits"

	"repro/internal/partition"
	"repro/internal/types"
)

// Execution model
//
// Delivery (SB order) and execution are decoupled:
//
//   - Each worker instance has an execution queue of delivered blocks. A
//     block escrow-phases only once the replica's *executed* state vector
//     covers the block's referenced state b.S ("the escrow is performed on
//     the system state b.S referred to by the transaction or any subsequent
//     state derived from it", Sec. V-C). This makes escrow outcomes
//     deterministic: the leader validated the batch under b.S, credits only
//     grow balances, and (with SplitMultiPayer) a payer's debits are
//     serialized in one instance.
//
//   - Globally confirmed blocks enter a FIFO execution queue. The head
//     transaction executes only when it is ready (its escrow phase finished
//     on every involved instance); later entries never overtake it, so
//     shared-object operations run in exactly the global order everywhere.
//
//   - Execution addresses the ledger by handle. A transaction is resolved
//     once per Resolver (resolve.go): each op's key to its ledger.Handle,
//     its route, and each payer leg's instance. The replica's tracker holds
//     only its own mutable state beside that immutable resolution; escrow,
//     commit, abort, credit and shared assign then index slices. The
//     tracker is the transaction's escrow record: the legs of an escrowed
//     route entry hold, a failing leg returns the legs its own call held,
//     and settle releases or returns exactly the legs that hold. Handles
//     and slots are the resolver's: replicas sharing it (the simulator's)
//     share them, and they never enter a message or a digest.
//
//   - The queues hold bare blocks. Delivery, the escrow phase and the
//     global log each find a transaction's tracker through track, which
//     reads the slot from the transaction's memo; only a transaction whose
//     tracker the checkpoint GC released, or whose resolution it recycled,
//     is looked up in the content index again.

// txTracker is one replica's mutable state for one transaction, beside
// its resolution: which route entries escrowed its payer operations, how
// many global-log occurrences have been processed, whether it is
// confirmed, and when this replica first received it and first saw it
// proposed and delivered (zero: not yet) — the stamps OnConfirm reports.
// Trackers live in Replica.trk, addressed by the transaction's slot; a
// route longer than 64 entries keeps its further escrow bits in
// Replica.escrowedHi.
//
// The tracker is also the transaction's escrow record (see Execution
// model); holding keeps its open record counted in the ledger's
// EscrowCount.
type txTracker struct {
	tx           *types.Transaction // first copy seen; dropped once confirmed
	escrowedBits uint64             // bit i set: route entry i's payer legs hold
	slot         partition.Slot
	occurSeen    int32 // glog occurrences processed so far
	live         bool  // the slot is tracked
	done         bool  // confirmed: committed or aborted
	holding      bool  // some leg holds: a ledger escrow record is open

	received, proposed, delivered types.Time
}

// res returns the resolution of t's transaction: its slot's. The tracker
// keeps no pointer to it, which the garbage collector would trace for
// every transaction in flight.
func (r *Replica) res(t *txTracker) *resolution { return r.resolver.at(t.slot) }

// route returns t's route.
func (r *Replica) route(t *txTracker) []int32 { return r.res(t).routeOf() }

const trkChunk = 512 // trackers per chunk of Replica.trk; chunks never move

func (r *Replica) tracker(s partition.Slot) *txTracker { return &r.trk[s/trkChunk][s%trkChunk] }

// track resolves tx and returns its tracker, starting one (and pinning the
// slot in the replica's table) if the slot has none. It is how every step
// (delivery, escrow, the global log) finds the transaction's tracker: for a
// transaction the replica has already resolved the memo names the slot, so
// nothing is hashed. A transaction met again after the checkpoint GC
// released its tracker is tracked afresh, as a new arrival would be.
func (r *Replica) track(tx *types.Transaction) *txTracker {
	s := r.resolver.resolve(tx)
	for int(s) >= len(r.trk)*trkChunk {
		r.trk = append(r.trk, make([]txTracker, trkChunk))
	}
	t := r.tracker(s)
	if !t.live {
		t.tx, t.slot, t.live = tx, s, true
		if r.buckets.Table().Pin(s) {
			r.resolver.hold(s)
		}
		// The resolution's handles may be new to this replica's store.
		if n := r.store.Cover(); n > len(r.promised) {
			r.promised = append(r.promised, make([]types.Amount, n-len(r.promised))...)
		}
	}
	return t
}

// escrowed reports whether the given instance's payer ops escrowed.
func (r *Replica) escrowed(t *txTracker, instance int) bool {
	for i, inst := range r.route(t) {
		if int(inst) == instance {
			if i < 64 {
				return t.escrowedBits&(1<<uint(i)) != 0
			}
			hi := r.escrowedHi[t.slot]
			w := (i - 64) / 64
			return w < len(hi) && hi[w]&(1<<uint((i-64)%64)) != 0
		}
	}
	return false
}

// markEscrowed records a successful escrow phase on instance.
func (r *Replica) markEscrowed(t *txTracker, instance int) {
	route := r.route(t)
	for i, inst := range route {
		if int(inst) != instance {
			continue
		}
		if i < 64 {
			t.escrowedBits |= 1 << uint(i)
			return
		}
		if r.escrowedHi == nil {
			r.escrowedHi = make(map[partition.Slot][]uint64)
		}
		hi := r.escrowedHi[t.slot]
		if hi == nil {
			hi = make([]uint64, (len(route)-64+63)/64)
			r.escrowedHi[t.slot] = hi
		}
		hi[(i-64)/64] |= 1 << uint((i-64)%64)
		return
	}
}

// escrowedCount returns the number of instances whose escrow phase
// succeeded.
func (r *Replica) escrowedCount(t *txTracker) int {
	n := bits.OnesCount64(t.escrowedBits)
	if r.escrowedHi != nil {
		for _, w := range r.escrowedHi[t.slot] {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// ready reports whether the transaction's escrow phase concluded on every
// instance it belongs to (successfully, or by failing and aborting it).
func (r *Replica) ready(t *txTracker) bool {
	return t.done || r.escrowedCount(t) == int(r.res(t).n)
}

// confirm finalizes a transaction at this replica: exactly once per tx.
func (r *Replica) confirm(t *txTracker, success bool) {
	if t.done {
		return
	}
	t.done = true
	if success {
		r.confirmedOK++
	} else {
		r.confirmedBad++
	}
	if r.cfg.OnConfirm != nil {
		r.cfg.OnConfirm(t.tx, success, StageTrace{
			Submit:    types.Time(t.tx.SubmitNS),
			Received:  t.received,
			Proposed:  t.proposed,
			Delivered: t.delivered,
			Confirmed: r.sim.Now(),
		})
	}
	t.tx = nil // stop pinning the decoded block (or submission) it sits in
	if t.occurSeen >= r.res(t).n {
		r.release = append(r.release, t.slot)
	}
}

// occurred counts one global-log occurrence of t. A tracker is finished
// once it is confirmed and every occurrence has passed — whichever comes
// last (here or in confirm) lists it for the next checkpoint GC to free.
func (r *Replica) occurred(t *txTracker) {
	t.occurSeen++
	if t.done && t.occurSeen == r.res(t).n {
		r.release = append(r.release, t.slot)
	}
}

// drainExecQueues escrow-phases delivered blocks whose state references are
// satisfied. One instance's progress can unblock another, so it loops until
// a fixed point. The occupancy bitset keeps each pass proportional to the
// instances that actually hold queued blocks (ascending order, exactly as
// the full scan visited them) instead of all M.
func (r *Replica) drainExecQueues() {
	for progress := true; progress; {
		progress = false
		for wi, word := range r.execQocc {
			for word != 0 {
				i := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				q, h := r.execQ[i], r.execQhead[i]
				for h < len(q) {
					b := q[h]
					if r.cfg.Mode.FastPathPayments && !r.execState.Covers(b.State) {
						break
					}
					q[h] = nil
					h++
					r.execState[i] = b.SN + 1
					if r.cfg.Mode.FastPathPayments {
						r.execPartial(i, b)
					}
					if b.Proposer == r.cfg.ID {
						r.releaseProposedDebits(b)
					}
					progress = true
				}
				if h == len(q) {
					// Drained: rewind onto the backing array so future
					// deliveries append without growing.
					q, h = q[:0], 0
					r.execQocc[wi] &^= 1 << uint(i&63)
				}
				r.execQ[i], r.execQhead[i] = q, h
			}
		}
	}
	r.drainGlogQueue()
}

// execPartial processes one block of a partial log under Orthrus's fast
// path (Algorithm 1 lines 20-30): escrow this instance's payer operations;
// abort the whole transaction if any escrow fails; once every involved
// instance has escrowed, commit payments immediately. Contract transactions
// keep their escrows and wait for the global log.
func (r *Replica) execPartial(instance int, b *types.Block) {
	for i := range b.Txs {
		tx := &b.Txs[i]
		t := r.track(tx)
		if t.done || r.escrowed(t, instance) {
			continue
		}
		if !r.escrowLegs(t, tx, instance) {
			// An escrow failed: undo everything escrowed so far for this
			// transaction, on every instance (Solution I: atomic abort).
			r.settle(t, tx, false)
			continue
		}
		if r.escrowedCount(t) == int(r.res(t).n) && tx.Kind() == types.Payment {
			// All payer escrows committed: the payment is decided. Apply
			// credits and confirm without waiting for the global log.
			r.settle(t, tx, true)
		}
	}
}

// escrowLegs holds the payer legs of tx that run on instance and, if
// every one held, marks the instance escrowed. A leg that fails returns
// the legs this call held, so a failed call leaves nothing held.
func (r *Replica) escrowLegs(t *txTracker, tx *types.Transaction, instance int) bool {
	res, held := r.res(t), false
	for i, op := range tx.Ops {
		if !op.IsPayerOp() || res.leg(i) != instance {
			continue
		}
		if !r.store.Hold(res.handle(i), op.Amount, op.Con) {
			for j, op := range tx.Ops[:i] {
				if op.IsPayerOp() && res.leg(j) == instance {
					r.store.Return(res.handle(j), op.Amount)
				}
			}
			return false
		}
		held = true
	}
	if held && !t.holding {
		t.holding = true
		r.store.OpenRecord()
	}
	r.markEscrowed(t, instance)
	return true
}

// settle decides t's transaction tx, the one step every commit or abort
// takes: the legs that hold (their instance escrowed) are released on ok,
// when the credits apply too, and returned otherwise; either way it is
// confirmed.
func (r *Replica) settle(t *txTracker, tx *types.Transaction, ok bool) {
	res := r.res(t)
	if t.holding {
		for i, op := range tx.Ops {
			if !op.IsPayerOp() || !r.escrowed(t, res.leg(i)) {
				continue
			}
			if ok {
				r.store.Release(res.handle(i), op.Amount)
			} else {
				r.store.Return(res.handle(i), op.Amount)
			}
		}
		t.holding = false
		r.store.CloseRecord()
	}
	if ok {
		for i, op := range tx.Ops {
			if op.Type == types.Owned && op.Kind == types.OpIncrement {
				r.store.Add(res.handle(i), op.Amount)
			}
		}
	}
	r.confirm(t, ok)
}

// glogCursor walks the transactions of one globally confirmed block.
type glogCursor struct {
	b    *types.Block
	next int
}

// enqueueGlobal queues globally confirmed blocks for in-order execution.
func (r *Replica) enqueueGlobal(blocks []*types.Block) {
	for _, b := range blocks {
		r.glogQ = append(r.glogQ, glogCursor{b: b})
	}
}

// drainGlogQueue executes globally confirmed blocks strictly in order. The
// head transaction may have to wait for its escrow phase (driven by the
// per-instance queues); nothing overtakes it.
func (r *Replica) drainGlogQueue() {
	for r.glogHead < len(r.glogQ) {
		cur := &r.glogQ[r.glogHead]
		for cur.next < len(cur.b.Txs) {
			tx := &cur.b.Txs[cur.next]
			t := r.track(tx)
			if t.occurSeen+1 < r.res(t).n {
				// Not the last occurrence of a multi-instance transaction:
				// skip it here; the final occurrence executes it.
				r.occurred(t)
				cur.next++
				continue
			}
			// The fast path settles a payment; a contract waits here until
			// its escrow phase concluded on every instance.
			fastPayment := r.cfg.Mode.FastPathPayments && tx.Kind() == types.Payment
			if r.cfg.Mode.FastPathPayments && !fastPayment && !r.ready(t) {
				return // wait for the escrow phase; order preserved
			}
			r.occurred(t)
			cur.next++
			if !t.done && !fastPayment {
				r.execGlobal(t)
			}
		}
		r.glogQ[r.glogHead] = glogCursor{}
		r.glogHead++
	}
	// Fully drained: rewind onto the backing array.
	r.glogQ, r.glogHead = r.glogQ[:0], 0
}

// execGlobal finishes t's transaction at its global-log position. Without
// the fast path its payer legs escrow here, each on its route entry, until
// one fails (settle returns the entries that held); Orthrus escrowed them
// at partial-log time. Then the shared-object operations run (the
// non-commutative part) and the transaction settles.
func (r *Replica) execGlobal(t *txTracker) {
	tx := t.tx
	ok := true
	if !r.cfg.Mode.FastPathPayments {
		for _, instance := range r.route(t) {
			ok = ok && r.escrowLegs(t, tx, int(instance))
		}
	}
	r.settle(t, tx, ok && r.execShared(t, tx))
}

// execShared runs the shared-object operations of t's transaction tx; it
// reports success. On failure, earlier shared effects of the same tx remain
// applied — every replica executes the identical prefix in the identical
// global position, so consistency across replicas is preserved.
func (r *Replica) execShared(t *txTracker, tx *types.Transaction) bool {
	res := r.res(t)
	for i, op := range tx.Ops {
		if op.Type != types.Shared {
			continue
		}
		if _, err := r.store.Apply(res.handle(i), op); err != nil {
			return false
		}
	}
	return true
}
