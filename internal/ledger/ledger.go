// Package ledger implements the replicated object store and the escrow
// mechanism of Orthrus (paper Sec. V-C, Algorithm 2).
//
// The store holds owned objects (accounts with balances) and shared objects
// (contract records). An escrow temporarily reserves a decremental amount
// — a hold — so that (a) multi-payer payments split across SB instances
// stay atomic, and (b) payments are not blocked behind globally-ordered
// contract transactions touching the same payer.
//
// A Directory interns each account key, and each record key, once to a
// Handle: a dense index, append-only. Every store built on a directory
// shares its handles; a store keeps balances, holds and record values in
// slices indexed by them, so the handle operations (Hold, Release, Return,
// Add, Apply) hash no key. A transaction's handles are resolved once per
// directory (core.Resolver), before a replica starts tracking it, and the
// replica's tracker is the transaction's escrow record: it knows which legs
// hold and settles exactly those. The TxID-keyed calls (Escrow, CommitEscrow, AbortEscrow) keep
// Algorithm 2's escrow log for callers without a record of their own; they
// are thin wrappers over the same handle operations.
package ledger

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/types"
)

// Handle is a dense index for one account or one shared record (two
// separate spaces; Account and Record intern into them), issued by a
// Directory. It is valid for the directory's lifetime and means the same to
// every store built on that directory — the simulated replicas of one run
// share one — and nothing to any other. It never enters a message or a
// digest.
type Handle int32

// Directory is an append-only map from keys to handles, one space for
// accounts and one for shared records. It is not safe for concurrent use:
// the stores sharing one run on one goroutine.
type Directory struct {
	accountOf   map[types.Key]Handle
	accountKeys []types.Key
	recordOf    map[types.Key]Handle
	recordKeys  []types.Key
}

// NewDirectory creates an empty directory.
func NewDirectory() *Directory {
	return &Directory{accountOf: make(map[types.Key]Handle), recordOf: make(map[types.Key]Handle)}
}

// Account returns owned key k's handle, interning k on first sight.
func (d *Directory) Account(k types.Key) Handle { return intern(d.accountOf, &d.accountKeys, k) }

// Record returns shared key k's handle, interning k as Account does.
func (d *Directory) Record(k types.Key) Handle { return intern(d.recordOf, &d.recordKeys, k) }

func intern(of map[types.Key]Handle, keys *[]types.Key, k types.Key) Handle {
	h, ok := of[k]
	if !ok {
		h = Handle(len(*keys))
		*keys = append(*keys, k)
		of[k] = h
	}
	return h
}

// Store is one replica's object state over a Directory. It is not safe for
// concurrent use; replicas in the simulator are single-threaded event
// handlers.
type Store struct {
	dir      *Directory
	accounts []account // by handle; covers every handle Cover has seen
	records  []record
	// elog: the TxID-keyed escrow log, each entry the holds its transaction
	// took and must undo on abort (Algorithm 2's (o, tx) pairs).
	elog map[types.TxID][]hold
	// holdsFree pools the elog's hold slices: commit/abort return a slice
	// here and the next escrow reuses it, so the steady-state escrow cycle
	// allocates nothing (stores are single-threaded; nothing outside the
	// store ever holds an elog slice).
	holdsFree [][]hold
	// open counts the escrow records callers keep themselves (OpenRecord).
	open int
}

// account is one owned object; its key lives only in the directory. set
// marks an account written at least once: Snapshot lists exactly those.
type account struct {
	bal  types.Amount // balance, holds already deducted
	held types.Amount // sum of the open holds on it
	set  bool
}

// record is one shared object, keyed and set as for account.
type record struct {
	val types.Amount
	set bool
}

// hold is one escrowed amount in the elog.
type hold struct {
	a      Handle
	amount types.Amount
}

// NewStore creates an empty store over a directory of its own.
func NewStore() *Store { return NewStoreIn(NewDirectory()) }

// NewStoreIn creates an empty store over directory d, which other stores
// may share.
func NewStoreIn(d *Directory) *Store {
	return &Store{dir: d, elog: make(map[types.TxID][]hold)}
}

// Account returns owned key k's handle, interning k on first sight. An
// interned account that was never written reads 0 and is not in Snapshot.
func (s *Store) Account(k types.Key) Handle {
	h := s.dir.Account(k)
	s.Cover()
	return h
}

// Record returns shared key k's handle, interning k as Account does.
func (s *Store) Record(k types.Key) Handle {
	h := s.dir.Record(k)
	s.Cover()
	return h
}

// Cover extends the store to every handle its directory has issued, which
// other stores may have interned, and returns the number of accounts. The
// handle operations take only covered handles.
func (s *Store) Cover() int {
	if n := len(s.dir.accountKeys); n > len(s.accounts) {
		s.accounts = append(s.accounts, make([]account, n-len(s.accounts))...)
	}
	if n := len(s.dir.recordKeys); n > len(s.records) {
		s.records = append(s.records, make([]record, n-len(s.records))...)
	}
	return len(s.accounts)
}

// Credit sets up an initial balance (genesis allocation).
func (s *Store) Credit(k types.Key, amount types.Amount) { s.Add(s.Account(k), amount) }

// Add credits amount to account a.
func (s *Store) Add(a Handle, amount types.Amount) {
	ac := &s.accounts[a]
	ac.bal += amount
	ac.set = true
}

// Balance returns the current balance of an owned object. Escrowed amounts
// are already deducted (they are held until commit/abort).
func (s *Store) Balance(k types.Key) types.Amount {
	if h, ok := s.dir.accountOf[k]; ok && int(h) < len(s.accounts) {
		return s.accounts[h].bal
	}
	return 0
}

// BalanceOf is Balance by handle.
func (s *Store) BalanceOf(a Handle) types.Amount { return s.accounts[a].bal }

// SharedValue returns the current value of a shared object.
func (s *Store) SharedValue(k types.Key) types.Amount {
	if h, ok := s.dir.recordOf[k]; ok && int(h) < len(s.records) {
		return s.records[h].val
	}
	return 0
}

// SetShared initializes a shared record (genesis).
func (s *Store) SetShared(k types.Key, v types.Amount) {
	r := &s.records[s.Record(k)]
	r.val, r.set = v, true
}

// EscrowCount returns the number of transactions with live escrows: the
// elog's entries and the open records callers keep themselves.
func (s *Store) EscrowCount() int { return len(s.elog) + s.open }

// TotalOwned sums all account balances plus amounts held in escrow —
// the conserved quantity for payment workloads.
func (s *Store) TotalOwned() types.Amount {
	var sum types.Amount
	for i := range s.accounts {
		sum += s.accounts[i].bal + s.accounts[i].held
	}
	return sum
}

// Hold escrows amount from account a (Algorithm 2, function escrow): apply
// the decrement; if the resulting value satisfies con, keep it as a hold
// and report true; otherwise the state is untouched and false is returned.
func (s *Store) Hold(a Handle, amount, con types.Amount) bool {
	ac := &s.accounts[a]
	v := ac.bal - amount
	if v < con {
		return false
	}
	ac.bal, ac.held, ac.set = v, ac.held+amount, true
	return true
}

// Release makes a hold permanent (commitEscrow): the balance was already
// decremented by Hold.
func (s *Store) Release(a Handle, amount types.Amount) { s.accounts[a].held -= amount }

// Return undoes a hold (abortEscrow): the amount goes back to the account.
func (s *Store) Return(a Handle, amount types.Amount) {
	ac := &s.accounts[a]
	ac.held -= amount
	ac.bal += amount
}

// OpenRecord and CloseRecord bracket an escrow record the caller keeps
// itself (a replica's transaction tracker), from its first hold to its
// settlement, so that EscrowCount counts it.
func (s *Store) OpenRecord() { s.open++ }

// CloseRecord ends a record OpenRecord began.
func (s *Store) CloseRecord() { s.open-- }

// Escrow is Hold for one op of transaction id, logged under id for
// CommitEscrow or AbortEscrow. Only payer ops escrow.
func (s *Store) Escrow(op types.Op, id types.TxID) bool {
	if !op.IsPayerOp() {
		return false
	}
	a := s.Account(op.Key)
	if !s.Hold(a, op.Amount, op.Con) {
		return false
	}
	hs, ok := s.elog[id]
	if !ok {
		if n := len(s.holdsFree); n > 0 {
			hs = s.holdsFree[n-1][:0]
			s.holdsFree[n-1] = nil
			s.holdsFree = s.holdsFree[:n-1]
		} else {
			hs = make([]hold, 0, 2)
		}
	}
	s.elog[id] = append(hs, hold{a, op.Amount})
	return true
}

// CommitEscrow releases every hold of transaction id and drops its log
// entry (Algorithm 2, function commitEscrow).
func (s *Store) CommitEscrow(id types.TxID) {
	if hs, ok := s.elog[id]; ok {
		for _, h := range hs {
			s.Release(h.a, h.amount)
		}
		s.holdsFree = append(s.holdsFree, hs)
		delete(s.elog, id)
	}
}

// AbortEscrow returns every hold of transaction id and drops its log entry
// (Algorithm 2, function abortEscrow).
func (s *Store) AbortEscrow(id types.TxID) {
	if hs, ok := s.elog[id]; ok {
		for _, h := range hs {
			s.Return(h.a, h.amount)
		}
		s.holdsFree = append(s.holdsFree, hs)
		delete(s.elog, id)
	}
}

// ApplyIncrement applies an incremental op on an owned object.
func (s *Store) ApplyIncrement(op types.Op) error {
	if op.Type != types.Owned || op.Kind != types.OpIncrement {
		return fmt.Errorf("ledger: ApplyIncrement on %v/%v", op.Type, op.Kind)
	}
	s.Add(s.Account(op.Key), op.Amount)
	return nil
}

// ApplyShared executes a shared-object op (assign or read). Reads return
// the value; assigns overwrite it. Non-commutative: callers must invoke
// this only in global order.
func (s *Store) ApplyShared(op types.Op) (types.Amount, error) {
	if op.Type != types.Shared {
		return 0, fmt.Errorf("ledger: ApplyShared on owned object %q", op.Key)
	}
	return s.Apply(s.Record(op.Key), op)
}

// Apply is ApplyShared on record r, the handle of op.Key.
func (s *Store) Apply(r Handle, op types.Op) (types.Amount, error) {
	rec := &s.records[r]
	switch op.Kind {
	case types.OpAssign:
		rec.val, rec.set = op.Amount, true
		return op.Amount, nil
	case types.OpRead:
		return rec.val, nil
	case types.OpIncrement:
		rec.val, rec.set = rec.val+op.Amount, true
		return rec.val, nil
	case types.OpDecrement:
		v := rec.val - op.Amount
		if v < op.Con {
			return rec.val, fmt.Errorf("ledger: shared decrement below condition on %q", op.Key)
		}
		rec.val, rec.set = v, true
		return v, nil
	default:
		return 0, fmt.Errorf("ledger: unknown op kind %v", op.Kind)
	}
}

// Snapshot captures the full owned/shared state in a canonical order, used
// by safety property tests to compare replicas (Theorem 1).
type Snapshot struct {
	Owned  []KV
	Shared []KV
}

// KV is one key/value pair of a snapshot.
type KV struct {
	Key   types.Key
	Value types.Amount
}

// Snapshot returns the canonical state snapshot: every account and record
// ever written. Held amounts are folded back into their accounts so
// snapshots of replicas with in-flight escrows at identical logical states
// still compare equal.
func (s *Store) Snapshot() Snapshot {
	snap := Snapshot{Owned: make([]KV, 0, len(s.accounts)), Shared: make([]KV, 0, len(s.records))}
	for h := range s.accounts {
		if a := &s.accounts[h]; a.set {
			snap.Owned = append(snap.Owned, KV{s.dir.accountKeys[h], a.bal + a.held})
		}
	}
	for h := range s.records {
		if r := &s.records[h]; r.set {
			snap.Shared = append(snap.Shared, KV{s.dir.recordKeys[h], r.val})
		}
	}
	byKey := func(a, b KV) int { return cmp.Compare(a.Key, b.Key) }
	slices.SortFunc(snap.Owned, byKey)
	slices.SortFunc(snap.Shared, byKey)
	return snap
}

// Equal compares two snapshots.
func (a Snapshot) Equal(b Snapshot) bool {
	if len(a.Owned) != len(b.Owned) || len(a.Shared) != len(b.Shared) {
		return false
	}
	for i := range a.Owned {
		if a.Owned[i] != b.Owned[i] {
			return false
		}
	}
	for i := range a.Shared {
		if a.Shared[i] != b.Shared[i] {
			return false
		}
	}
	return true
}
