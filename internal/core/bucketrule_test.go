package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/partition"
	"repro/internal/types"
)

// randomRouteTx draws one transaction of the shapes the bucket rule has to
// cover, over a pool of 24 accounts so payers repeat and share buckets: a
// payment, a multi-payer transfer of 1-6 payer ops (a payer may be listed
// twice), a contract call by 1-3 callers, or a mint, which has no payer.
func randomRouteTx(rng *rand.Rand, nonce uint64) *types.Transaction {
	acct := func() types.Key { return types.Key(fmt.Sprintf("acct-%d", rng.Intn(24))) }
	switch rng.Intn(4) {
	case 0:
		return types.NewPayment(acct(), acct(), 1, nonce)
	case 1:
		tx := &types.Transaction{Client: acct(), Nonce: nonce}
		for k := 1 + rng.Intn(6); k > 0; k-- {
			tx.Ops = append(tx.Ops, types.Op{Key: acct(), Type: types.Owned, Kind: types.OpDecrement, Amount: 1})
		}
		tx.Ops = append(tx.Ops, types.Op{Key: acct(), Type: types.Owned, Kind: types.OpIncrement, Amount: 1})
		rng.Shuffle(len(tx.Ops), func(i, j int) { tx.Ops[i], tx.Ops[j] = tx.Ops[j], tx.Ops[i] })
		return tx
	case 2:
		callers := make([]types.Key, 1+rng.Intn(3))
		for i := range callers {
			callers[i] = acct()
		}
		return types.NewContractCall(acct(), callers, 1, []types.Op{types.NewSharedAssign("rec", 1)}, nonce)
	default:
		return &types.Transaction{Client: acct(), Nonce: nonce, Ops: []types.Op{
			{Key: acct(), Type: types.Owned, Kind: types.OpIncrement, Amount: 5},
		}}
	}
}

// TestOneBucketRule checks every user of partition.Route against the rule
// of Sec. V-A stated from scratch: a transaction's buckets are the distinct
// Assign buckets of its payers, ascending, or its client's alone. An
// Orthrus replica's tracker routes by it (a no-split mode by its head), the
// client submits to each route bucket's leader and its f successors after
// the observer, and Set.Add queues in exactly the route's buckets.
func TestOneBucketRule(t *testing.T) {
	noSplit := OrthrusMode()
	noSplit.SplitMultiPayer = false
	for _, m := range []int{4, 10, 16} {
		f := (m - 1) / 3
		split, cut := newBareReplicaM(t, OrthrusMode(), m), newBareReplicaM(t, noSplit, m)
		router, set := NewSubmitRouter(m, f), partition.NewSet(m)
		nonce := uint64(0)
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			nonce++
			tx := randomRouteTx(rng, nonce)

			var want []int32
			for _, op := range tx.Ops {
				if op.IsPayerOp() {
					want = append(want, int32(partition.Assign(op.Key, m)))
				}
			}
			if len(want) == 0 {
				want = []int32{int32(partition.Assign(tx.Client, m))}
			}
			slices.Sort(want)
			want = slices.Compact(want)

			got := partition.Route(nil, tx, func(i int) int32 {
				if i < 0 {
					return int32(partition.Assign(tx.Client, m))
				}
				return int32(partition.Assign(tx.Ops[i].Key, m))
			})
			if !slices.Equal(got, want) {
				t.Logf("m=%d %+v: Route %v, want %v", m, tx.Ops, got, want)
				return false
			}
			if r := split.track(tx).route(); !slices.Equal(r, want) {
				t.Logf("m=%d %+v: Orthrus tracker route %v, want %v", m, tx.Ops, r, want)
				return false
			}
			if r := cut.track(tx).route(); !slices.Equal(r, want[:1]) {
				t.Logf("m=%d %+v: no-split tracker route %v, want %v", m, tx.Ops, r, want[:1])
				return false
			}

			wantTargets := map[int]bool{0: true}
			for _, b := range want {
				for k := 0; k <= f; k++ {
					wantTargets[(int(b)+k)%m] = true
				}
			}
			targets := router.Targets(tx)
			seen := map[int]bool{}
			for _, id := range targets {
				if seen[id] || !wantTargets[id] {
					t.Logf("m=%d route %v: targets %v repeat or stray at replica %d", m, want, targets, id)
					return false
				}
				seen[id] = true
			}
			if len(seen) != len(wantTargets) || targets[0] != 0 {
				t.Logf("m=%d route %v: targets %v, want the observer first and %v", m, want, targets, wantTargets)
				return false
			}

			idx, err := set.Add(tx)
			if err != nil {
				t.Logf("m=%d: Set.Add: %v", m, err)
				return false
			}
			if len(idx) != len(want) {
				t.Logf("m=%d: Set.Add used %v, want %v", m, idx, want)
				return false
			}
			for i, b := range idx {
				if int32(b) != want[i] {
					t.Logf("m=%d: Set.Add used %v, want %v", m, idx, want)
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
	}
}
