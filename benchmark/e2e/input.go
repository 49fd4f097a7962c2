package e2e

import (
	"fmt"
	"strconv"

	"repro/benchmark/gen"
	"repro/orthrus"
)

// Input is everything a workload hands to the program, plus the
// benchmark's own join table. Building it is the benchmark's set-up.
type Input struct {
	Specs   []gen.Spec
	Txs     []*orthrus.Tx
	Genesis map[string]int64
	// index maps a transaction ID to its position in the stream, which
	// fixes its due time. Keys and values hold no pointers, so the map
	// adds nothing to the garbage collector's mark work during a run.
	index map[uint64]int32
}

// Materialise builds the SDK transaction a Spec describes.
func Materialise(s gen.Spec) *orthrus.Tx {
	switch s.Kind {
	case gen.Payment:
		return orthrus.Payment(gen.Account(s.From), gen.Account(s.To), s.Amount, s.Nonce)
	case gen.TwoPayer:
		to := gen.Account(s.To)
		return orthrus.MultiPayment(gen.Account(s.From), []orthrus.Transfer{
			{From: gen.Account(s.From), To: to, Amount: s.Amount},
			{From: gen.Account(s.From2), To: to, Amount: s.Amount2},
		}, s.Nonce)
	default:
		caller := gen.Account(s.From)
		ops := make([]orthrus.Op, s.NRecords)
		for i := range ops {
			ops[i] = orthrus.SharedAssign(gen.Record(s.Records[i]), s.Values[i])
		}
		return orthrus.ContractCall(caller, []string{caller}, s.Amount, s.Nonce, ops...)
	}
}

// BuildInput draws n transactions from seed and materialises them.
func BuildInput(w Workload, seed int64, n int) (*Input, error) {
	in := &Input{
		Specs:   gen.Stream(seed, n, w.Payments),
		Txs:     make([]*orthrus.Tx, n),
		Genesis: gen.Genesis(),
		index:   make(map[uint64]int32, n),
	}
	for k, s := range in.Specs {
		tx := Materialise(s)
		id, err := parseID(tx.ID())
		if err != nil {
			return nil, err
		}
		if _, dup := in.index[id]; dup {
			return nil, fmt.Errorf("transactions %d and %d share ID %s", in.index[id], k, tx.ID())
		}
		in.index[id] = int32(k)
		in.Txs[k] = tx
	}
	return in, nil
}

// parseID turns the SDK's 16-digit hex transaction ID into a map key.
func parseID(id string) (uint64, error) {
	v, err := strconv.ParseUint(id, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("transaction ID %q: %w", id, err)
	}
	return v, nil
}
