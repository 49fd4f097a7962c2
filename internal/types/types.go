// Package types defines the core data model of the Orthrus reproduction:
// objects, operations, transactions, blocks and system-state vectors, along
// with deterministic binary encodings used for hashing and signing.
//
// The model follows Sec. III-B of the paper. Objects are long-lived records
// identified by a key. Owned objects (accounts) support commutative
// incremental/decremental operations guarded by a condition (usually
// "balance must stay >= 0"). Shared objects belong to smart contracts and
// support non-commutative operations such as assignment, which force the
// enclosing transaction through the global log.
package types

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
)

// Amount is a token quantity. Balances and transfer amounts are integral;
// the unit is arbitrary (think wei/satoshi).
type Amount int64

// Key identifies an object. For owned objects it is the owner's address;
// for shared objects it is the contract record's identifier.
type Key string

// ObjectType distinguishes owned (account) objects from shared (contract
// state) objects.
type ObjectType uint8

const (
	// Owned objects have a single owner; decrements require the owner's
	// signature. Accounts are owned objects.
	Owned ObjectType = iota
	// Shared objects have no owner and may be mutated by any authorized
	// contract transaction.
	Shared
)

// String implements fmt.Stringer.
func (t ObjectType) String() string {
	switch t {
	case Owned:
		return "owned"
	case Shared:
		return "shared"
	default:
		return fmt.Sprintf("ObjectType(%d)", uint8(t))
	}
}

// OpKind enumerates the operations a transaction may request on an object.
type OpKind uint8

const (
	// OpIncrement adds Amount to the object's value. Commutative.
	OpIncrement OpKind = iota
	// OpDecrement subtracts Amount from the object's value, subject to the
	// condition that the resulting value stays >= Con. Commutative with
	// decrements on other objects; serialized per object via buckets.
	OpDecrement
	// OpAssign overwrites the object's value with Amount. Non-commutative;
	// only valid on shared objects and forces global ordering.
	OpAssign
	// OpRead observes the object's value without modifying it. Used by
	// contract transactions whose outcome depends on shared state.
	OpRead
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpIncrement:
		return "inc"
	case OpDecrement:
		return "dec"
	case OpAssign:
		return "assign"
	case OpRead:
		return "read"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Commutative reports whether the operation commutes with other operations
// of the same kind on distinct objects (and with increments on the same
// object). Assignments and reads of shared state are not commutative.
func (k OpKind) Commutative() bool {
	return k == OpIncrement || k == OpDecrement
}

// Op is one operation of a transaction on one object (the paper's per-object
// (key, op, con, type) tuple embedded in tx.O).
type Op struct {
	Key    Key        // object identifier
	Type   ObjectType // owned or shared
	Kind   OpKind     // operation to perform
	Amount Amount     // operand: delta for inc/dec, new value for assign
	Con    Amount     // condition: post-state must satisfy value >= Con
}

// IsPayerOp reports whether this op withdraws from an owned object, i.e. the
// op that determines bucket assignment (Sec. V-A: owned + decremental).
func (o Op) IsPayerOp() bool {
	return o.Type == Owned && o.Kind == OpDecrement
}

// TxKind classifies transactions per Sec. III-B.
type TxKind uint8

const (
	// Payment transactions touch only owned objects with inc/dec ops. They
	// are confirmed from partial logs without global ordering.
	Payment TxKind = iota
	// Contract transactions may touch shared objects and non-commutative
	// ops; they are confirmed through the global log.
	Contract
)

// String implements fmt.Stringer.
func (k TxKind) String() string {
	switch k {
	case Payment:
		return "payment"
	case Contract:
		return "contract"
	default:
		return fmt.Sprintf("TxKind(%d)", uint8(k))
	}
}

// TxID is the content digest of a transaction.
type TxID [32]byte

// String returns a short hex prefix for logging.
func (id TxID) String() string { return hexPrefix(id) }

// hexPrefix renders a digest's first eight bytes through a stack array: the
// string is the only object allocated.
func hexPrefix(id [32]byte) string {
	var buf [16]byte
	hex.Encode(buf[:], id[:8])
	return string(buf[:])
}

// Transaction is a client request (paper: tx = (O, id, sigma)).
type Transaction struct {
	Ops      []Op   // operations, at least one owned object involved
	Client   Key    // submitting client's account (an owned object)
	Nonce    uint64 // client-chosen uniquifier
	Sig      []byte // client signature over the canonical encoding
	Payload  []byte // opaque payload (models the 500-byte tx body)
	SubmitNS int64  // client submit time (virtual ns); not hashed

	// Idx is a dense 1-based per-run index stamped by the submission layer
	// (cluster.Run). It is not part of the content digest, carries no
	// protocol meaning and never crosses a wire; a replica that sees one
	// identifies the transaction by it without hashing. 0 means unindexed:
	// the transaction is identified by its ID (every real-transport arrival).
	Idx uint64

	id     TxID
	hashed bool
}

// Kind derives the transaction class from its operations: any shared object
// or non-commutative op makes it a contract transaction.
func (tx *Transaction) Kind() TxKind {
	for _, op := range tx.Ops {
		if op.Type == Shared || !op.Kind.Commutative() {
			return Contract
		}
	}
	return Payment
}

// Payers returns the distinct owned-object keys with decremental operations,
// in first-appearance order. These determine bucket assignment. A
// transaction has a handful of ops, so a linear scan finds the repeats.
func (tx *Transaction) Payers() []Key {
	var out []Key
	for _, op := range tx.Ops {
		if op.IsPayerOp() && !slices.Contains(out, op.Key) {
			out = append(out, op.Key)
		}
	}
	return out
}

// TotalDebit sums the decremental amounts over owned objects.
func (tx *Transaction) TotalDebit() Amount {
	var sum Amount
	for _, op := range tx.Ops {
		if op.IsPayerOp() {
			sum += op.Amount
		}
	}
	return sum
}

// TotalCredit sums the incremental amounts over owned objects.
func (tx *Transaction) TotalCredit() Amount {
	var sum Amount
	for _, op := range tx.Ops {
		if op.Type == Owned && op.Kind == OpIncrement {
			sum += op.Amount
		}
	}
	return sum
}

// Balanced reports whether debits equal credits over owned objects —
// a conservation sanity check for pure payments.
func (tx *Transaction) Balanced() bool { return tx.TotalDebit() == tx.TotalCredit() }

// ID returns the transaction's content digest, computed lazily and cached.
// The digest covers Ops, Client and Nonce (not Sig, Payload or timing); the
// preimage is built on the stack (spilling to the heap past 384 bytes).
func (tx *Transaction) ID() TxID {
	if !tx.hashed {
		var stack [384]byte
		buf := appendStr(stack[:0], string(tx.Client))
		buf = binary.BigEndian.AppendUint64(buf, tx.Nonce)
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(tx.Ops)))
		for i := range tx.Ops {
			op := &tx.Ops[i]
			buf = appendStr(buf, string(op.Key))
			buf = append(buf, byte(op.Type), byte(op.Kind))
			buf = binary.BigEndian.AppendUint64(buf, uint64(op.Amount))
			buf = binary.BigEndian.AppendUint64(buf, uint64(op.Con))
		}
		tx.id = sha256.Sum256(buf)
		tx.hashed = true
	}
	return tx.id
}

// appendStr appends s behind its eight-byte length.
func appendStr(buf []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint64(buf, uint64(len(s))), s...)
}

// Validate performs stateless format checks: at least one op, at least one
// owned object (every tx is initiated by a client account), non-negative
// amounts, and assign ops only on shared objects.
func (tx *Transaction) Validate() error {
	if len(tx.Ops) == 0 {
		return fmt.Errorf("transaction %s has no operations", tx.ID())
	}
	ownedSeen := false
	for i, op := range tx.Ops {
		if op.Key == "" {
			return fmt.Errorf("transaction %s op %d has empty key", tx.ID(), i)
		}
		if op.Amount < 0 {
			return fmt.Errorf("transaction %s op %d has negative amount %d", tx.ID(), i, op.Amount)
		}
		if op.Kind == OpAssign && op.Type != Shared {
			return fmt.Errorf("transaction %s op %d assigns to an owned object", tx.ID(), i)
		}
		if op.Type == Owned {
			ownedSeen = true
		}
	}
	if !ownedSeen {
		return fmt.Errorf("transaction %s involves no owned object", tx.ID())
	}
	return nil
}

// StateVector is the Multi-BFT system state S = (sn_0, ..., sn_{m-1}):
// element i is the number of blocks delivered by instance i (so the next
// expected sequence number). The zero-length vector denotes the initial
// state of a system whose instance count is not yet known.
type StateVector []uint64

// Clone returns a deep copy.
func (s StateVector) Clone() StateVector {
	out := make(StateVector, len(s))
	copy(out, s)
	return out
}

// Covers reports whether s has delivered at least everything in t
// (pointwise >=). A block proposed under state t may be executed under any
// covering state s ("any subsequent state derived through valid updates").
func (s StateVector) Covers(t StateVector) bool {
	if len(s) < len(t) {
		return false
	}
	for i, v := range t {
		if s[i] < v {
			return false
		}
	}
	return true
}

// Equal reports pointwise equality.
func (s StateVector) Equal(t StateVector) bool {
	if len(s) != len(t) {
		return false
	}
	for i, v := range t {
		if s[i] != v {
			return false
		}
	}
	return true
}

// String renders the vector compactly, e.g. "(3,0,5)".
func (s StateVector) String() string {
	b := make([]byte, 0, 2+4*len(s))
	b = append(b, '(')
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendUint(b, v)
	}
	return string(append(b, ')'))
}

func appendUint(b []byte, v uint64) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}

// BlockID identifies a block by content digest.
type BlockID [32]byte

// String returns a short hex prefix for logging.
func (id BlockID) String() string { return hexPrefix(id) }

// Block is a batch of transactions proposed by the leader of one SB
// instance (paper: b = (txs, ins, sn, S, sigma); the Rank field carries
// Ladon's monotonic rank used by the dynamic global ordering algorithm).
type Block struct {
	Instance int           // SB instance that produced the block
	SN       uint64        // sequence number within the instance
	Rank     uint64        // Ladon rank assigned at proposal time
	State    StateVector   // system state the block's txs were validated under
	Txs      []Transaction // transaction batch
	// Refs lists worker blocks whose global order this block decides; used
	// only by dedicated-sequencer protocols (DQBFT), empty otherwise.
	Refs      []BlockRef
	Proposer  int    // replica index of the proposing leader
	Sig       []byte // leader signature over Digest()
	ProposeNS int64  // proposal time (virtual ns); not hashed

	digest   BlockID
	digested bool
}

// BlockRef identifies a block by instance and sequence number.
type BlockRef struct {
	Instance int
	SN       uint64
}

// Digest returns the block's content digest (instance, sn, rank, state and
// the IDs of contained transactions); a large block's preimage is heaped.
func (b *Block) Digest() BlockID {
	if !b.digested {
		var stack [4096]byte
		buf := stack[:0]
		if need := 8 * (6 + len(b.State) + 4*len(b.Txs) + 2*len(b.Refs)); need > len(stack) {
			buf = make([]byte, 0, need)
		}
		buf = binary.BigEndian.AppendUint64(buf, uint64(b.Instance))
		buf = binary.BigEndian.AppendUint64(buf, b.SN)
		buf = binary.BigEndian.AppendUint64(buf, b.Rank)
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(b.State)))
		for _, v := range b.State {
			buf = binary.BigEndian.AppendUint64(buf, v)
		}
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(b.Txs)))
		for i := range b.Txs {
			id := b.Txs[i].ID()
			buf = append(buf, id[:]...)
		}
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(b.Refs)))
		for _, r := range b.Refs {
			buf = binary.BigEndian.AppendUint64(buf, uint64(r.Instance))
			buf = binary.BigEndian.AppendUint64(buf, r.SN)
		}
		b.digest = sha256.Sum256(buf)
		b.digested = true
	}
	return b.digest
}

// OrderKey is the (rank, instance) pair used by the dynamic global ordering
// algorithm; blocks are globally ordered by rank, ties broken by instance.
type OrderKey struct {
	Rank     uint64
	Instance int
}

// Less reports whether k precedes o in global order (paper: k < o, written
// "k ≺ o").
func (k OrderKey) Less(o OrderKey) bool {
	if k.Rank != o.Rank {
		return k.Rank < o.Rank
	}
	return k.Instance < o.Instance
}

// Key returns the block's global ordering key.
func (b *Block) Key() OrderKey { return OrderKey{Rank: b.Rank, Instance: b.Instance} }

// SortBlocks orders blocks by their global OrderKey in place.
func SortBlocks(bs []*Block) {
	sort.Slice(bs, func(i, j int) bool { return bs[i].Key().Less(bs[j].Key()) })
}
