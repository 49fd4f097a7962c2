// Package gen is the benchmark's own transaction generator. The program
// under test never sees the seed: it receives only the transaction list a
// driver materialises from the Specs this package draws. Keeping the draw
// separate from the materialisation lets the end-to-end driver build
// orthrus.Tx values and the layer probes build types.Transaction values
// from one stream, and a test pins that both yield the same IDs.
package gen

import (
	"math/rand"
	"strconv"
	"strings"
)

// The stream's fixed shape. Accounts is small enough that every replica's
// routing caches hold the whole population, and the Zipf skew makes a few
// heavy-hitter payers load one bucket more than the rest, as on Ethereum.
const (
	Accounts         = 4000
	Records          = 256
	ZipfS            = 1.1
	MaxAmount        = 100
	TwoPayerFraction = 0.05
	Fee              = 1
	// InitialBalance is far above what the hottest account can spend in
	// the longest run, so no workload ever overdrafts and an abort is
	// always a defect.
	InitialBalance = 1_000_000_000
)

// Kind is the shape of one transaction.
type Kind uint8

// The three shapes the paper's mix contains.
const (
	Payment  Kind = iota // one payer, one payee: fast path, one bucket
	TwoPayer             // two payers, one payee: fast path, atomic across buckets
	Contract             // fee debit plus shared-record assignments: global log
)

// Spec describes one transaction by account and record index.
type Spec struct {
	Kind  Kind
	Nonce int64
	// From pays Amount (the fee for a Contract); From2 pays Amount2
	// (TwoPayer only); To receives both legs.
	From, From2, To int
	Amount, Amount2 int64
	// Records[:NRecords] are assigned Values[:NRecords] (Contract only).
	Records  [2]int
	Values   [2]int64
	NRecords int
}

// Key strings are rendered once: every transaction that names an account
// shares its string, as a client's wallet would.
var (
	accounts = keys("acct-", Accounts, 4)
	records  = keys("record-", Records, 3)
)

func keys(prefix string, n, width int) []string {
	out := make([]string, n)
	for i := range out {
		digits := strconv.Itoa(i)
		out[i] = prefix + strings.Repeat("0", width-len(digits)) + digits
	}
	return out
}

// Account returns the key of account i.
func Account(i int) string { return accounts[i] }

// Record returns the key of shared record i.
func Record(i int) string { return records[i] }

// Stream draws n transactions from seed. payments is the share of
// payments; the rest are contract calls.
func Stream(seed int64, n int, payments float64) []Spec {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, ZipfS, 1, Accounts-1)
	account := func(not ...int) int {
	draw:
		for {
			a := int(zipf.Uint64())
			for _, x := range not {
				if a == x {
					continue draw
				}
			}
			return a
		}
	}
	amount := func() int64 { return rng.Int63n(MaxAmount) + 1 }

	out := make([]Spec, n)
	for k := range out {
		s := Spec{Nonce: int64(k + 1)}
		if rng.Float64() < payments {
			s.From = account()
			s.To = account(s.From)
			s.Amount = amount()
			if rng.Float64() < TwoPayerFraction {
				s.Kind = TwoPayer
				s.From2 = account(s.From, s.To)
				s.Amount2 = amount()
			}
		} else {
			s.Kind = Contract
			s.From = account()
			s.Amount = Fee
			s.NRecords = 1 + rng.Intn(2)
			for i := 0; i < s.NRecords; i++ {
				s.Records[i] = rng.Intn(Records)
				s.Values[i] = amount()
			}
		}
		out[k] = s
	}
	return out
}

// Genesis returns the balance every account starts with, keyed as the
// SDK's WithGenesis wants it.
func Genesis() map[string]int64 {
	g := make(map[string]int64, Accounts)
	for i := 0; i < Accounts; i++ {
		g[Account(i)] = InitialBalance
	}
	return g
}

// Balances returns every account's balance after all of specs commit: the
// reference a run's final ledger is checked against. Contract fees are
// burned, as in the program.
func Balances(specs []Spec) []int64 {
	b := make([]int64, Accounts)
	for i := range b {
		b[i] = InitialBalance
	}
	for i := range specs {
		s := &specs[i]
		b[s.From] -= s.Amount
		switch s.Kind {
		case Payment:
			b[s.To] += s.Amount
		case TwoPayer:
			b[s.From2] -= s.Amount2
			b[s.To] += s.Amount + s.Amount2
		}
	}
	return b
}
