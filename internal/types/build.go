package types

// This file provides convenience constructors for the two transaction
// shapes the paper discusses: single/multi-payer payments and contract
// invocations. They are used by tests, examples and the workload generator.

// NewPayment builds a single-payer, single-payee payment transaction:
// payer transfers amount to payee. The condition on the payer enforces a
// non-negative balance after the decrement.
func NewPayment(payer, payee Key, amount Amount, nonce uint64) *Transaction {
	return &Transaction{
		Ops: []Op{
			{Key: payer, Type: Owned, Kind: OpDecrement, Amount: amount, Con: 0},
			{Key: payee, Type: Owned, Kind: OpIncrement, Amount: amount, Con: 0},
		},
		Client: payer,
		Nonce:  nonce,
	}
}

// Transfer describes one leg of a multi-party payment.
type Transfer struct {
	From   Key
	To     Key
	Amount Amount
}

// NewMultiPayment builds a payment with multiple payers and/or payees. The
// transaction is atomic: the escrow mechanism commits it only if every
// payer's decrement succeeds (paper Challenge/Solution I).
func NewMultiPayment(client Key, transfers []Transfer, nonce uint64) *Transaction {
	tx := &Transaction{Client: client, Nonce: nonce}
	// Aggregate per-account deltas so each account appears once per
	// direction, matching the paper's sub-transaction decomposition.
	debits := map[Key]Amount{}
	credits := map[Key]Amount{}
	var order []Key
	seen := map[Key]bool{}
	note := func(k Key) {
		if !seen[k] {
			seen[k] = true
			order = append(order, k)
		}
	}
	for _, t := range transfers {
		debits[t.From] += t.Amount
		credits[t.To] += t.Amount
		note(t.From)
		note(t.To)
	}
	for _, k := range order {
		if d := debits[k]; d > 0 {
			tx.Ops = append(tx.Ops, Op{Key: k, Type: Owned, Kind: OpDecrement, Amount: d, Con: 0})
		}
	}
	for _, k := range order {
		if c := credits[k]; c > 0 {
			tx.Ops = append(tx.Ops, Op{Key: k, Type: Owned, Kind: OpIncrement, Amount: c, Con: 0})
		}
	}
	return tx
}

// NewContractCall builds a contract transaction: each caller pays fee into
// escrow, and the contract performs non-commutative operations on shared
// records. The shared ops force the transaction through the global log.
func NewContractCall(client Key, callers []Key, fee Amount, shared []Op, nonce uint64) *Transaction {
	tx := &Transaction{Client: client, Nonce: nonce}
	for _, c := range callers {
		tx.Ops = append(tx.Ops, Op{Key: c, Type: Owned, Kind: OpDecrement, Amount: fee, Con: 0})
	}
	tx.Ops = append(tx.Ops, shared...)
	return tx
}

// NewSharedAssign is a helper for contract workloads: an assignment op on a
// shared record.
func NewSharedAssign(record Key, value Amount) Op {
	return Op{Key: record, Type: Shared, Kind: OpAssign, Amount: value}
}

// Clone returns an independent copy of the transaction with its own Ops
// slice (Payload stays shared read-only) and neither ordinal nor memo. The
// harness stamps per-run fields on submitted transactions — SubmitNS, the
// ordinal, the lazily cached digest — and a replica its memo, so a
// transaction reused across runs (especially concurrent ones) must be
// cloned per run.
func (tx *Transaction) Clone() *Transaction {
	cp := *tx
	cp.Ops = append([]Op(nil), tx.Ops...)
	cp.ordinal, cp.memo = 0, Memo{}
	return &cp
}

// NewSharedRead is a helper for contract workloads: a read of a shared
// record.
func NewSharedRead(record Key) Op {
	return Op{Key: record, Type: Shared, Kind: OpRead}
}
