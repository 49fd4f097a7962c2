package gen

import (
	"reflect"
	"testing"
)

func TestStreamIsAFunctionOfItsSeed(t *testing.T) {
	a, b := Stream(7, 2000, 0.46), Stream(7, 2000, 0.46)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different streams")
	}
	if reflect.DeepEqual(a, Stream(8, 2000, 0.46)) {
		t.Fatal("different seeds drew the same stream")
	}
}

func TestStreamShape(t *testing.T) {
	specs := Stream(1, 20000, 0.46)
	kinds := map[Kind]int{}
	for _, s := range specs {
		kinds[s.Kind]++
		if s.From == s.To && s.Kind != Contract {
			t.Fatalf("payment %d pays itself", s.Nonce)
		}
		if s.Kind == TwoPayer && (s.From2 == s.From || s.From2 == s.To) {
			t.Fatalf("two-payer payment %d repeats an account", s.Nonce)
		}
	}
	pay := float64(kinds[Payment]+kinds[TwoPayer]) / float64(len(specs))
	if pay < 0.44 || pay > 0.48 {
		t.Errorf("payment share %.3f, want about 0.46", pay)
	}
	if two := float64(kinds[TwoPayer]) / float64(kinds[Payment]+kinds[TwoPayer]); two < 0.03 || two > 0.07 {
		t.Errorf("two-payer share of payments %.3f, want about 0.05", two)
	}
	if n := len(Stream(1, 1000, 0)); n != 1000 {
		t.Fatalf("drew %d of 1000", n)
	}
	for _, s := range Stream(1, 1000, 0) {
		if s.Kind != Contract {
			t.Fatal("payment in an all-contract stream")
		}
	}
}

// Every debit has its credit except contract fees, which are burned.
func TestBalancesConserveValue(t *testing.T) {
	specs := Stream(3, 5000, 0.46)
	fees := int64(0)
	for _, s := range specs {
		if s.Kind == Contract {
			fees += Fee
		}
	}
	total := int64(0)
	for _, b := range Balances(specs) {
		total += b
	}
	if want := int64(Accounts)*InitialBalance - fees; total != want {
		t.Fatalf("balances sum to %d, want %d", total, want)
	}
}
