package orthrus

import (
	"repro/internal/ledger"
	"repro/internal/types"
)

// Tx is one explicit transaction for a scripted run (WithTransactions):
// the SDK's opaque handle over the paper's transaction shapes. Construct
// with Payment, MultiPayment or ContractCall.
type Tx struct {
	tx *types.Transaction
}

// ID returns the transaction's content digest (a short hex string), the
// same identifier Observer callbacks report in TxInfo.ID.
func (t *Tx) ID() string { return t.tx.ID().String() }

// Kind returns "payment" or "contract".
func (t *Tx) Kind() string { return t.tx.Kind().String() }

// Payment builds a single-payer payment: from transfers amount to to.
// Under Orthrus it confirms on the fast path, straight from the partial
// logs. The nonce distinguishes otherwise-identical transactions — reuse a
// (from, to, amount, nonce) tuple and you have the same transaction.
func Payment(from, to string, amount, nonce int64) *Tx {
	return &Tx{tx: types.NewPayment(types.Key(from), types.Key(to), types.Amount(amount), uint64(nonce))}
}

// Transfer is one leg of a MultiPayment.
type Transfer struct {
	From, To string
	Amount   int64
}

// MultiPayment builds a payment with multiple payers and/or payees,
// submitted by client. It commits atomically via the escrow mechanism:
// either every payer's debit succeeds or the whole payment aborts.
func MultiPayment(client string, transfers []Transfer, nonce int64) *Tx {
	ts := make([]types.Transfer, len(transfers))
	for i, t := range transfers {
		ts[i] = types.Transfer{From: types.Key(t.From), To: types.Key(t.To), Amount: types.Amount(t.Amount)}
	}
	return &Tx{tx: types.NewMultiPayment(types.Key(client), ts, uint64(nonce))}
}

// Op is one state operation inside a ContractCall.
type Op struct {
	op types.Op
}

// SharedAssign assigns value to a shared record — a non-commutative
// operation that forces the enclosing transaction through the global log.
func SharedAssign(key string, value int64) Op {
	return Op{op: types.NewSharedAssign(types.Key(key), types.Amount(value))}
}

// ContractCall builds a contract transaction submitted by client: each
// payer pays fee into escrow and the shared ops execute at the
// transaction's global-log position.
func ContractCall(client string, payers []string, fee, nonce int64, ops ...Op) *Tx {
	shared := make([]types.Op, len(ops))
	for i, o := range ops {
		shared[i] = o.op
	}
	ks := make([]types.Key, len(payers))
	for i, p := range payers {
		ks[i] = types.Key(p)
	}
	return &Tx{tx: types.NewContractCall(types.Key(client), ks, types.Amount(fee), shared, uint64(nonce))}
}

// txInfo projects a transaction into the Observer's view.
func txInfo(tx *types.Transaction) TxInfo {
	info := TxInfo{ID: tx.ID().String(), Kind: tx.Kind().String(), Client: string(tx.Client)}
	if payers := tx.Payers(); len(payers) > 0 {
		info.Payers = make([]string, len(payers))
		for i, p := range payers {
			info.Payers[i] = string(p)
		}
	}
	return info
}

// fixedSource feeds a scripted transaction list into a run, with initial
// balances from WithGenesis. It satisfies the workload source contract:
// the run caps submissions at the list length, so Next is never called
// past the end.
type fixedSource struct {
	txs     []types.Transaction
	credits map[string]int64
	next    int
}

func (s *fixedSource) Genesis() func(st *ledger.Store) {
	credits := s.credits
	return func(st *ledger.Store) {
		for account, amount := range credits {
			st.Credit(types.Key(account), types.Amount(amount))
		}
	}
}

func (s *fixedSource) Next() *types.Transaction {
	tx := &s.txs[s.next]
	s.next++
	return tx
}
