package workload

import (
	"testing"

	"repro/internal/ledger"
	"repro/internal/types"
)

func TestDefaultsMatchPaper(t *testing.T) {
	g := New(Config{Seed: 1})
	cfg := g.Config()
	if cfg.Accounts != 18000 {
		t.Fatalf("accounts = %d", cfg.Accounts)
	}
	if cfg.PaymentFraction != 0.46 {
		t.Fatalf("payment fraction = %v", cfg.PaymentFraction)
	}
}

func TestPaymentFractionRealized(t *testing.T) {
	g := New(Config{Seed: 7})
	const n = 20000
	payments := 0
	for i := 0; i < n; i++ {
		if g.Next().Kind() == types.Payment {
			payments++
		}
	}
	frac := float64(payments) / n
	if frac < 0.43 || frac > 0.49 {
		t.Fatalf("realized payment fraction %.3f, want ~0.46", frac)
	}
}

func TestExtremePaymentFractions(t *testing.T) {
	gAll := New(Config{Seed: 1, PaymentFraction: 1.0})
	for i := 0; i < 500; i++ {
		if gAll.Next().Kind() != types.Payment {
			t.Fatal("PaymentFraction=1 produced a contract tx")
		}
	}
	gNone := New(Config{Seed: 1, PaymentFraction: -1}) // negative = explicit 0%
	for i := 0; i < 500; i++ {
		if gNone.Next().Kind() != types.Contract {
			t.Fatal("PaymentFraction<0 produced a payment")
		}
	}
}

func TestAllTxsValid(t *testing.T) {
	g := New(Config{Seed: 3, MultiPayerFraction: 0.3})
	for i := 0; i < 5000; i++ {
		tx := g.Next()
		if err := tx.Validate(); err != nil {
			t.Fatalf("generated invalid tx: %v", err)
		}
	}
}

func TestDeterministicStream(t *testing.T) {
	a := New(Config{Seed: 11})
	b := New(Config{Seed: 11})
	for i := 0; i < 1000; i++ {
		if a.Next().ID() != b.Next().ID() {
			t.Fatalf("streams diverge at %d", i)
		}
	}
	c := New(Config{Seed: 12})
	same := 0
	a2 := New(Config{Seed: 11})
	for i := 0; i < 100; i++ {
		if a2.Next().ID() == c.Next().ID() {
			same++
		}
	}
	if same == 100 {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestZipfSkewPresent(t *testing.T) {
	g := New(Config{Seed: 5})
	counts := map[types.Key]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		tx := g.Next()
		for _, p := range tx.Payers() {
			counts[p]++
		}
	}
	// Account 0 must be far more popular than the median account.
	if counts[Account(0)] < n/100 {
		t.Fatalf("hot account has only %d of %d payer slots; skew missing", counts[Account(0)], n)
	}
	if len(counts) < 100 {
		t.Fatalf("only %d distinct payers; skew too extreme", len(counts))
	}
}

func TestGenesisFundsAllAccounts(t *testing.T) {
	g := New(Config{Seed: 1, Accounts: 50})
	st := ledger.NewStore()
	g.Genesis()(st)
	for i := 0; i < 50; i++ {
		if st.Balance(Account(i)) != initialBalance {
			t.Fatalf("account %d balance %d", i, st.Balance(Account(i)))
		}
	}
}

func TestMultiPayerFractionRealized(t *testing.T) {
	g := New(Config{Seed: 9, PaymentFraction: 1.0, MultiPayerFraction: 0.5})
	multi := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if len(g.Next().Payers()) == 2 {
			multi++
		}
	}
	frac := float64(multi) / n
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("multi-payer fraction %.3f, want ~0.5", frac)
	}
}

func TestBatch(t *testing.T) {
	g := New(Config{Seed: 2})
	b := g.Batch(17)
	if len(b) != 17 {
		t.Fatalf("batch len %d", len(b))
	}
	seen := map[types.TxID]bool{}
	for _, tx := range b {
		if seen[tx.ID()] {
			t.Fatal("duplicate tx in batch")
		}
		seen[tx.ID()] = true
	}
}

func TestContractsTouchSharedRecords(t *testing.T) {
	g := New(Config{Seed: 4, PaymentFraction: -1})
	for i := 0; i < 200; i++ {
		tx := g.Next()
		hasShared := false
		for _, op := range tx.Ops {
			if op.Type == types.Shared {
				hasShared = true
			}
		}
		if !hasShared {
			t.Fatal("contract tx without shared op")
		}
	}
}
