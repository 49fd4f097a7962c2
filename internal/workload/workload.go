// Package workload generates the synthetic transaction stream that stands
// in for the paper's Ethereum trace (200,000 transactions from blocks
// 17,198,000-17,202,000 over 18,000 active accounts, 46% of which are
// payment transactions). The generator reproduces the properties Orthrus is
// sensitive to: the account count, the payment/contract mix, a Zipf
// popularity skew over accounts (heavy-hitter senders, as on Ethereum), a
// configurable multi-payer fraction, and contract calls touching a pool of
// shared records.
package workload

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/ledger"
	"repro/internal/types"
)

// Config parameterizes the generator. The zero value is completed with the
// paper's defaults by New.
type Config struct {
	Accounts int // number of active accounts (paper: 18,000)
	// PaymentFraction is the fraction of payment transactions. Zero selects
	// the paper's default 0.46; pass a negative value for an explicit 0%
	// (all-contract) workload, as in the Fig. 5 sweep's left edge.
	PaymentFraction float64
	// MultiPayerFraction is the fraction of payments with two payers,
	// exercising cross-instance atomicity.
	MultiPayerFraction float64
	Seed               int64
}

// The generator's fixed shape: every contract call has one fee-paying
// caller and touches the sharedRecords pool.
const (
	sharedRecords = 256 // shared contract records
	// zipfS > 1 skews account popularity (s -> 1 is most skewed allowed).
	zipfS = 1.1
	// maxAmount bounds transfer amounts (drawn uniformly in [1, maxAmount]).
	maxAmount types.Amount = 100
	// initialBalance is each account's genesis balance. It is deliberately
	// large relative to maxAmount so honest traffic never overdrafts, like
	// the paper's reset-and-replay methodology.
	initialBalance types.Amount = 1_000_000
)

func (c Config) withDefaults() Config {
	if c.Accounts <= 0 {
		c.Accounts = 18000
	}
	if c.PaymentFraction == 0 {
		c.PaymentFraction = 0.46
	}
	if c.MultiPayerFraction == 0 {
		c.MultiPayerFraction = 0.05
	}
	return c
}

// Generator produces a deterministic transaction stream.
type Generator struct {
	cfg   Config
	rng   *rand.Rand
	zipf  *rand.Zipf
	nonce uint64
	// accounts and records cache rendered key strings by index (lazily
	// filled): key construction is on the per-transaction hot path.
	accounts []types.Key
	records  []types.Key
}

// New creates a generator; unset Config fields take the paper's defaults.
func New(cfg Config) *Generator {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &Generator{
		cfg:  cfg,
		rng:  rng,
		zipf: rand.NewZipf(rng, zipfS, 1, uint64(cfg.Accounts-1)),
	}
}

// Config returns the effective configuration after defaulting.
func (g *Generator) Config() Config { return g.cfg }

// Account returns the key of account i.
func Account(i int) types.Key { return paddedKey("acct-", i, 6) }

// Record returns the key of shared record i.
func Record(i int) types.Key { return paddedKey("record-", i, 4) }

// paddedKey renders prefix + zero-padded decimal i (width digits minimum)
// without fmt — key construction sits on the workload generator's hot
// path, and Sprintf costs several allocations per call.
func paddedKey(prefix string, i, width int) types.Key {
	if i < 0 { // negative indices never occur; fall back for safety
		return types.Key(fmt.Sprintf("%s%0*d", prefix, width, i))
	}
	buf := make([]byte, 0, len(prefix)+width+20)
	buf = append(buf, prefix...)
	start := len(buf)
	buf = strconv.AppendInt(buf, int64(i), 10)
	if pad := width - (len(buf) - start); pad > 0 {
		const zeros = "00000000000000000000"
		buf = append(buf, zeros[:pad]...)
		copy(buf[start+pad:], buf[start:]) // shift digits right (overlap-safe)
		copy(buf[start:], zeros[:pad])
	}
	return types.Key(buf)
}

// Genesis returns the ledger initializer matching the generator's
// accounts. It warms the generator's key caches, so every key string is
// rendered exactly once per generator and shared by all the stores the
// closure initializes (one per replica).
func (g *Generator) Genesis() func(st *ledger.Store) {
	cfg := g.cfg
	accounts := make([]types.Key, cfg.Accounts)
	for i := range accounts {
		accounts[i] = g.accountKey(i)
	}
	records := make([]types.Key, sharedRecords)
	for i := range records {
		records[i] = g.recordKey(i)
	}
	return func(st *ledger.Store) {
		for _, k := range accounts {
			st.Credit(k, initialBalance)
		}
		for _, k := range records {
			st.SetShared(k, 0)
		}
	}
}

// accountKey returns Account(i) through the generator's lazily filled
// cache: the generator draws the same few thousand keys for the whole
// run, and rendering one costs an allocation.
func (g *Generator) accountKey(i int) types.Key {
	if g.accounts == nil {
		g.accounts = make([]types.Key, g.cfg.Accounts)
	}
	if k := g.accounts[i]; k != "" {
		return k
	}
	k := Account(i)
	g.accounts[i] = k
	return k
}

// recordKey is accountKey for shared records.
func (g *Generator) recordKey(i int) types.Key {
	if g.records == nil {
		g.records = make([]types.Key, sharedRecords)
	}
	if k := g.records[i]; k != "" {
		return k
	}
	k := Record(i)
	g.records[i] = k
	return k
}

func (g *Generator) pickAccount() types.Key { return g.accountKey(int(g.zipf.Uint64())) }

func (g *Generator) pickOther(not types.Key) types.Key {
	for i := 0; i < 100; i++ {
		k := g.pickAccount()
		if k != not {
			return k
		}
	}
	// Degenerate skew: fall back to a uniform draw.
	for {
		k := g.accountKey(g.rng.Intn(g.cfg.Accounts))
		if k != not {
			return k
		}
	}
}

func (g *Generator) amount() types.Amount {
	return types.Amount(g.rng.Int63n(int64(maxAmount))) + 1
}

// Next produces the next transaction of the stream.
func (g *Generator) Next() *types.Transaction {
	g.nonce++
	if g.rng.Float64() < g.cfg.PaymentFraction {
		return g.nextPayment()
	}
	return g.nextContract()
}

func (g *Generator) nextPayment() *types.Transaction {
	payer := g.pickAccount()
	payee := g.pickOther(payer)
	if g.rng.Float64() < g.cfg.MultiPayerFraction {
		payer2 := g.pickOther(payer)
		return types.NewMultiPayment(payer, []types.Transfer{
			{From: payer, To: payee, Amount: g.amount()},
			{From: payer2, To: payee, Amount: g.amount()},
		}, g.nonce)
	}
	return types.NewPayment(payer, payee, g.amount(), g.nonce)
}

func (g *Generator) nextContract() *types.Transaction {
	caller := g.pickAccount()
	rec := g.recordKey(g.rng.Intn(sharedRecords))
	ops := []types.Op{types.NewSharedAssign(rec, g.amount())}
	if g.rng.Intn(2) == 0 {
		ops = append(ops, types.NewSharedRead(g.recordKey(g.rng.Intn(sharedRecords))))
	}
	return types.NewContractCall(caller, []types.Key{caller}, 1, ops, g.nonce)
}

// Batch produces the next n transactions.
func (g *Generator) Batch(n int) []*types.Transaction {
	out := make([]*types.Transaction, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
