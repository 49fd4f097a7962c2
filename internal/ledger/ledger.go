// Package ledger implements the replicated object store and the escrow
// mechanism of Orthrus (paper Sec. V-C, Algorithm 2).
//
// The store holds owned objects (accounts with balances) and shared objects
// (contract records). The escrow log elog temporarily reserves decremental
// amounts so that (a) multi-payer payments split across SB instances stay
// atomic, and (b) payments are not blocked behind globally-ordered contract
// transactions touching the same payer.
package ledger

import (
	"fmt"
	"sort"

	"repro/internal/types"
)

// Store is one replica's object state. It is not safe for concurrent use;
// replicas in the simulator are single-threaded event handlers.
type Store struct {
	owned  map[types.Key]types.Amount // account balances (escrowed funds already deducted)
	shared map[types.Key]types.Amount // contract record values
	// elog: escrow requests keyed by transaction, each holding the ops that
	// were applied and must be undone on abort (Algorithm 2's (o, tx) pairs).
	elog map[types.TxID][]types.Op
	// opsFree pools the elog's op slices: commit/abort return a slice here
	// and the next escrow reuses it, so the steady-state escrow cycle
	// allocates nothing (stores are single-threaded; nothing outside the
	// store ever holds an elog slice).
	opsFree [][]types.Op
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{
		owned:  make(map[types.Key]types.Amount),
		shared: make(map[types.Key]types.Amount),
		elog:   make(map[types.TxID][]types.Op),
	}
}

// Credit sets up an initial balance (genesis allocation).
func (s *Store) Credit(k types.Key, amount types.Amount) { s.owned[k] += amount }

// Balance returns the current balance of an owned object. Escrowed amounts
// are already deducted (they sit in the escrow log until commit/abort).
func (s *Store) Balance(k types.Key) types.Amount { return s.owned[k] }

// SharedValue returns the current value of a shared object.
func (s *Store) SharedValue(k types.Key) types.Amount { return s.shared[k] }

// SetShared initializes a shared record (genesis).
func (s *Store) SetShared(k types.Key, v types.Amount) { s.shared[k] = v }

// EscrowCount returns the number of transactions with live escrows.
func (s *Store) EscrowCount() int { return len(s.elog) }

// TotalOwned sums all account balances plus amounts held in escrow —
// the conserved quantity for payment workloads.
func (s *Store) TotalOwned() types.Amount {
	var sum types.Amount
	for _, v := range s.owned {
		sum += v
	}
	for _, ops := range s.elog {
		for _, op := range ops {
			if op.IsPayerOp() {
				sum += op.Amount
			}
		}
	}
	return sum
}

// Escrow attempts the escrow operation for one op of tx (Algorithm 2,
// function escrow): apply the decrement; if the resulting value satisfies
// the condition, keep it and record the request in elog; otherwise the
// state is untouched and false is returned.
func (s *Store) Escrow(op types.Op, id types.TxID) bool {
	if !op.IsPayerOp() {
		return false
	}
	value := s.owned[op.Key] - op.Amount
	if value < op.Con {
		return false
	}
	s.owned[op.Key] = value
	ops, ok := s.elog[id]
	if !ok {
		if n := len(s.opsFree); n > 0 {
			ops = s.opsFree[n-1][:0]
			s.opsFree[n-1] = nil
			s.opsFree = s.opsFree[:n-1]
		} else {
			ops = make([]types.Op, 0, 2)
		}
	}
	s.elog[id] = append(ops, op)
	return true
}

// CommitEscrow makes tx's escrowed deductions permanent by dropping the
// escrow entries (Algorithm 2, function commitEscrow). The balances were
// already decremented at escrow time.
func (s *Store) CommitEscrow(id types.TxID) {
	if ops, ok := s.elog[id]; ok {
		s.opsFree = append(s.opsFree, ops)
		delete(s.elog, id)
	}
}

// AbortEscrow undoes and removes all escrow requests of tx (Algorithm 2,
// function abortEscrow): the reserved amounts return to their accounts.
func (s *Store) AbortEscrow(id types.TxID) {
	ops, ok := s.elog[id]
	if !ok {
		return
	}
	for _, op := range ops {
		s.owned[op.Key] += op.Amount // undo the decrement
	}
	s.opsFree = append(s.opsFree, ops)
	delete(s.elog, id)
}

// TrimPool caps the pooled free-list of escrow op slices at max entries,
// releasing the rest to the garbage collector. Long-horizon checkpoint GC
// calls it so a burst of concurrent escrows does not pin its high-water
// mark for the remainder of a days-long run.
func (s *Store) TrimPool(max int) {
	if max < 0 || len(s.opsFree) <= max {
		return
	}
	for i := max; i < len(s.opsFree); i++ {
		s.opsFree[i] = nil
	}
	s.opsFree = s.opsFree[:max]
}

// ApplyIncrement applies an incremental op on an owned object.
func (s *Store) ApplyIncrement(op types.Op) error {
	if op.Type != types.Owned || op.Kind != types.OpIncrement {
		return fmt.Errorf("ledger: ApplyIncrement on %v/%v", op.Type, op.Kind)
	}
	s.owned[op.Key] += op.Amount
	return nil
}

// ApplyShared executes a shared-object op (assign or read). Reads return
// the value; assigns overwrite it. Non-commutative: callers must invoke
// this only in global order.
func (s *Store) ApplyShared(op types.Op) (types.Amount, error) {
	if op.Type != types.Shared {
		return 0, fmt.Errorf("ledger: ApplyShared on owned object %q", op.Key)
	}
	switch op.Kind {
	case types.OpAssign:
		s.shared[op.Key] = op.Amount
		return op.Amount, nil
	case types.OpRead:
		return s.shared[op.Key], nil
	case types.OpIncrement:
		s.shared[op.Key] += op.Amount
		return s.shared[op.Key], nil
	case types.OpDecrement:
		v := s.shared[op.Key] - op.Amount
		if v < op.Con {
			return s.shared[op.Key], fmt.Errorf("ledger: shared decrement below condition on %q", op.Key)
		}
		s.shared[op.Key] = v
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

// Snapshot returns the canonical state snapshot. Escrowed amounts are folded
// back into their accounts so snapshots of replicas with in-flight escrows
// at identical logical states still compare equal.
func (s *Store) Snapshot() Snapshot {
	owned := make(map[types.Key]types.Amount, len(s.owned))
	for k, v := range s.owned {
		owned[k] = v
	}
	for _, ops := range s.elog {
		for _, op := range ops {
			owned[op.Key] += op.Amount
		}
	}
	var snap Snapshot
	for k, v := range owned {
		snap.Owned = append(snap.Owned, KV{k, v})
	}
	for k, v := range s.shared {
		snap.Shared = append(snap.Shared, KV{k, v})
	}
	sort.Slice(snap.Owned, func(i, j int) bool { return snap.Owned[i].Key < snap.Owned[j].Key })
	sort.Slice(snap.Shared, func(i, j int) bool { return snap.Shared[i].Key < snap.Shared[j].Key })
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
