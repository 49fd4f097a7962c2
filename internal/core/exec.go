package core

import (
	"math/bits"
	"slices"

	"repro/internal/ledger"
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
//   - Execution addresses the ledger by handle. When a tracker starts,
//     track resolves each op's key once to the store's ledger.Handle (and
//     each payer's bucket, by handle); escrow, commit, abort, credit and
//     shared assign then index slices. The tracker is the transaction's
//     escrow record: the legs of an escrowed route entry hold, a failing
//     leg returns the legs its own call held, and settle releases or
//     returns exactly the legs that hold. Handles are replica-private,
//     like slots: they never enter a message or a types.Transaction.

// txTracker follows one transaction across the instances it was assigned
// to: which instances escrowed its payer operations, how many global-log
// occurrences have been processed, whether it is confirmed, and when this
// replica first received it and first saw it proposed and delivered (zero:
// not yet) — the stamps OnConfirm reports. Trackers live in Replica.trk,
// addressed by the transaction's table slot.
//
// The tracker is also the transaction's escrow record (see Execution
// model); holding keeps its open record counted in the ledger's
// EscrowCount.
type txTracker struct {
	tx *types.Transaction // first copy seen; dropped once confirmed
	// The route (every payer's bucket for Orthrus, the first otherwise) and
	// each op's ledger handle are resolved once per slot: n route entries
	// in arr and the handles in hs, unless either outgrows its array, when
	// both live in wide.
	wide         *wideRoute
	arr          [4]int32
	hs           [4]ledger.Handle
	n            int32 // 0: the slot is not tracked
	slot         partition.Slot
	gen          uint32 // tracker incarnations of the slot; see txRef
	occurSeen    int32  // glog occurrences processed so far
	done         bool   // confirmed: committed or aborted
	holding      bool   // some leg holds: a ledger escrow record is open
	escrowedBits uint64 // bit i set: route()[i]'s payer legs hold

	received, proposed, delivered types.Time
}

// wideRoute holds a route or op handles longer than the inline arrays, and
// the escrow bits past 64 (the SDK allows that many distinct payer buckets
// at large m).
type wideRoute struct {
	route      []int32
	handles    []ledger.Handle
	escrowedHi []uint64
}

// txRef is a slot with the tracker incarnation it was resolved for; once
// the checkpoint GC releases the tracker the ref no longer matches (at).
type txRef struct {
	slot partition.Slot
	gen  uint32
}

// delivered is a block with its transactions' refs, aligned with b.Txs.
type delivered struct {
	b    *types.Block
	refs []txRef
}

func (t *txTracker) route() []int32 {
	if t.wide != nil {
		return t.wide.route
	}
	return t.arr[:t.n]
}

// handle returns the ledger handle of the transaction's op i.
func (t *txTracker) handle(i int) ledger.Handle {
	if t.wide != nil {
		return t.wide.handles[i]
	}
	return t.hs[i]
}

const trkChunk = 512 // trackers per chunk of Replica.trk; chunks never move

func (r *Replica) tracker(s partition.Slot) *txTracker { return &r.trk[s/trkChunk][s%trkChunk] }

// track interns tx and returns its tracker, starting one (and pinning the
// slot) if the slot has none.
func (r *Replica) track(tx *types.Transaction) *txTracker {
	s := r.buckets.Table().Intern(tx)
	for int(s) >= len(r.trk)*trkChunk {
		r.trk = append(r.trk, make([]txTracker, trkChunk))
	}
	t := r.tracker(s)
	if t.n == 0 {
		r.resolve(t, tx)
		t.tx, t.slot = tx, s
		r.buckets.Table().Pin(s)
	}
	return t
}

// resolve fills t's route and op handles for tx. The route is tx's
// partition.Route, cut to its head unless the mode splits multi-payer
// transactions.
func (r *Replica) resolve(t *txTracker, tx *types.Transaction) {
	hs := t.hs[:0]
	for _, op := range tx.Ops {
		if op.Type == types.Shared {
			hs = append(hs, r.store.Record(op.Key))
		} else {
			hs = append(hs, r.account(op.Key))
		}
	}
	route := partition.Route(t.arr[:0], tx, func(i int) int32 {
		if i < 0 {
			return r.bucketOf(r.account(tx.Client), tx.Client)
		}
		return r.bucketOf(hs[i], tx.Ops[i].Key)
	})
	if !r.cfg.Mode.SplitMultiPayer {
		route = route[:1]
	}
	t.n = int32(len(route))
	if len(route) <= len(t.arr) && len(hs) <= len(t.hs) {
		copy(t.arr[:], route) // a route cut back to its head may have spilled
		return
	}
	t.wide = &wideRoute{route: slices.Clone(route), handles: slices.Clone(hs)}
}

// account resolves owned key k to its ledger handle, extending the
// replica's per-account slices to cover it.
func (r *Replica) account(k types.Key) ledger.Handle {
	a := r.store.Account(k)
	for int(a) >= len(r.promised) {
		r.promised = append(r.promised, 0)
		r.payerBucket = append(r.payerBucket, -1)
	}
	return a
}

// bucketOf returns account a's bucket: k's partition.Assign, hashed once
// per account.
func (r *Replica) bucketOf(a ledger.Handle, k types.Key) int32 {
	if r.payerBucket[a] < 0 {
		r.payerBucket[a] = int32(partition.Assign(k, r.cfg.M))
	}
	return r.payerBucket[a]
}

// refsOf interns every transaction of b; the refs are carved from a shared
// chunk, one allocation per thousand rather than one per block.
func (r *Replica) refsOf(b *types.Block) []txRef {
	n := len(b.Txs)
	if len(r.refChunk) < n {
		r.refChunk = make([]txRef, max(n, 1024))
	}
	refs := r.refChunk[:n:n]
	r.refChunk = r.refChunk[n:]
	for i := range b.Txs {
		t := r.track(&b.Txs[i])
		refs[i] = txRef{t.slot, t.gen}
	}
	return refs
}

// at resolves a ref taken at delivery; a transaction delivered again after
// its tracker was released is interned afresh, as a new arrival would be.
func (r *Replica) at(ref txRef, tx *types.Transaction) *txTracker {
	if t := r.tracker(ref.slot); t.gen == ref.gen && t.n != 0 {
		return t
	}
	return r.track(tx)
}

// escrowed reports whether the given instance's payer ops escrowed.
func (t *txTracker) escrowed(instance int) bool {
	for i, inst := range t.route() {
		if int(inst) == instance {
			if i < 64 {
				return t.escrowedBits&(1<<uint(i)) != 0
			}
			w := (i - 64) / 64
			return w < len(t.wide.escrowedHi) && t.wide.escrowedHi[w]&(1<<uint((i-64)%64)) != 0
		}
	}
	return false
}

// markEscrowed records a successful escrow phase on instance.
func (t *txTracker) markEscrowed(instance int) {
	for i, inst := range t.route() {
		if int(inst) != instance {
			continue
		}
		if i < 64 {
			t.escrowedBits |= 1 << uint(i)
			return
		}
		if t.wide.escrowedHi == nil {
			t.wide.escrowedHi = make([]uint64, (len(t.wide.route)-64+63)/64)
		}
		t.wide.escrowedHi[(i-64)/64] |= 1 << uint((i-64)%64)
		return
	}
}

// escrowedCount returns the number of instances whose escrow phase
// succeeded.
func (t *txTracker) escrowedCount() int {
	n := bits.OnesCount64(t.escrowedBits)
	if t.wide != nil {
		for _, w := range t.wide.escrowedHi {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// ready reports whether the transaction's escrow phase concluded on every
// instance it belongs to (successfully, or by failing and aborting it).
func (t *txTracker) ready() bool {
	return t.done || t.escrowedCount() == int(t.n)
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
	if t.occurSeen >= t.n {
		r.release = append(r.release, t.slot)
	}
}

// occurred counts one global-log occurrence of t. A tracker is finished
// once it is confirmed and every occurrence has passed — whichever comes
// last (here or in confirm) lists it for the next checkpoint GC to free.
func (r *Replica) occurred(t *txTracker) {
	t.occurSeen++
	if t.done && t.occurSeen == t.n {
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
					d := q[h]
					if r.cfg.Mode.FastPathPayments && !r.execState.Covers(d.b.State) {
						break
					}
					q[h] = delivered{}
					h++
					r.execState[i] = d.b.SN + 1
					if r.cfg.Mode.FastPathPayments {
						r.execPartial(i, d)
					}
					if d.b.Proposer == r.cfg.ID {
						r.releaseProposedDebits(d)
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
func (r *Replica) execPartial(instance int, d delivered) {
	for i := range d.b.Txs {
		tx := &d.b.Txs[i]
		t := r.at(d.refs[i], tx)
		if t.done || t.escrowed(instance) {
			continue
		}
		if !r.escrowLegs(t, tx, instance) {
			// An escrow failed: undo everything escrowed so far for this
			// transaction, on every instance (Solution I: atomic abort).
			r.settle(t, tx, false)
			continue
		}
		if t.escrowedCount() == int(t.n) && tx.Kind() == types.Payment {
			// All payer escrows committed: the payment is decided. Apply
			// credits and confirm without waiting for the global log.
			r.settle(t, tx, true)
		}
	}
}

// escrowLegs holds the payer legs of tx that legOf gives instance and, if
// every one held, marks the instance escrowed. A leg that fails returns
// the legs this call held, so a failed call leaves nothing held.
func (r *Replica) escrowLegs(t *txTracker, tx *types.Transaction, instance int) bool {
	held := false
	for i, op := range tx.Ops {
		if !op.IsPayerOp() || r.legOf(t, i) != instance {
			continue
		}
		if !r.store.Hold(t.handle(i), op.Amount, op.Con) {
			for j, op := range tx.Ops[:i] {
				if op.IsPayerOp() && r.legOf(t, j) == instance {
					r.store.Return(t.handle(j), op.Amount)
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
	t.markEscrowed(instance)
	return true
}

// settle decides t's transaction tx, the one step every commit or abort
// takes: the legs that hold (their instance escrowed) are released on ok,
// when the credits apply too, and returned otherwise; either way it is
// confirmed.
func (r *Replica) settle(t *txTracker, tx *types.Transaction, ok bool) {
	if t.holding {
		for i, op := range tx.Ops {
			if !op.IsPayerOp() || !t.escrowed(r.legOf(t, i)) {
				continue
			}
			if ok {
				r.store.Release(t.handle(i), op.Amount)
			} else {
				r.store.Return(t.handle(i), op.Amount)
			}
		}
		t.holding = false
		r.store.CloseRecord()
	}
	if ok {
		for i, op := range tx.Ops {
			if op.Type == types.Owned && op.Kind == types.OpIncrement {
				r.store.Add(t.handle(i), op.Amount)
			}
		}
	}
	r.confirm(t, ok)
}

// glogCursor walks the transactions of one globally confirmed block.
type glogCursor struct {
	delivered
	next int
}

// enqueueGlobal queues globally confirmed blocks for in-order execution,
// reuniting each with the refs its delivery resolved.
func (r *Replica) enqueueGlobal(blocks []*types.Block) {
	for _, gb := range blocks {
		refs, ok := r.blockRefs[gb]
		if !ok {
			refs = r.refsOf(gb)
		}
		delete(r.blockRefs, gb)
		r.glogQ = append(r.glogQ, glogCursor{delivered: delivered{gb, refs}})
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
			t := r.at(cur.refs[cur.next], tx)
			if t.occurSeen+1 < t.n {
				// Not the last occurrence of a multi-instance transaction:
				// skip it here; the final occurrence executes it.
				r.occurred(t)
				cur.next++
				continue
			}
			// The fast path settles a payment; a contract waits here until
			// its escrow phase concluded on every instance.
			fastPayment := r.cfg.Mode.FastPathPayments && tx.Kind() == types.Payment
			if r.cfg.Mode.FastPathPayments && !fastPayment && !t.ready() {
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
		for _, instance := range t.route() {
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
	for i, op := range tx.Ops {
		if op.Type != types.Shared {
			continue
		}
		if _, err := r.store.Apply(t.handle(i), op); err != nil {
			return false
		}
	}
	return true
}
