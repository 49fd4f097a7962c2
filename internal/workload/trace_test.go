package workload

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ledger"
	"repro/internal/types"
)

func TestTraceRoundTrip(t *testing.T) {
	txs := []*types.Transaction{
		types.NewPayment("alice", "bob", 10, 1),
		types.NewMultiPayment("alice", []types.Transfer{
			{From: "alice", To: "carol", Amount: 3},
			{From: "bob", To: "carol", Amount: 4},
		}, 2),
		types.NewContractCall("dave", []types.Key{"dave"}, 2,
			[]types.Op{types.NewSharedAssign("rec", 99)}, 3),
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, txs); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(&buf, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 {
		t.Fatalf("trace len %d", tr.Len())
	}
	// Structural equivalence: kinds, payers and amounts survive.
	got0 := tr.Next()
	if got0.Kind() != types.Payment || got0.TotalDebit() != 10 || got0.Payers()[0] != "alice" {
		t.Fatalf("payment mangled: %+v", got0)
	}
	got1 := tr.Next()
	if len(got1.Payers()) != 2 || got1.TotalDebit() != 7 || got1.TotalCredit() != 7 {
		t.Fatalf("multipay mangled: %+v", got1)
	}
	got2 := tr.Next()
	if got2.Kind() != types.Contract || got2.TotalDebit() != 2 {
		t.Fatalf("contract mangled: %+v", got2)
	}
}

func TestTraceWrapAroundFreshNonces(t *testing.T) {
	txs := []*types.Transaction{types.NewPayment("a", "b", 1, 1)}
	tr := NewTrace(txs, 100)
	first := tr.Next()
	second := tr.Next() // wrapped
	if first.ID() == second.ID() {
		t.Fatal("wrapped replay reused the same tx ID")
	}
	if second.TotalDebit() != 1 || second.Payers()[0] != "a" {
		t.Fatal("wrapped clone mangled")
	}
}

func TestTraceGenesisResetsAllAccounts(t *testing.T) {
	txs := []*types.Transaction{
		types.NewPayment("a", "b", 1, 1),
		types.NewContractCall("c", []types.Key{"c"}, 1,
			[]types.Op{types.NewSharedAssign("rec", 5)}, 2),
	}
	tr := NewTrace(txs, 777)
	st := ledger.NewStore()
	tr.Genesis()(st)
	for _, k := range []types.Key{"a", "b", "c"} {
		if st.Balance(k) != 777 {
			t.Fatalf("account %s balance %d", k, st.Balance(k))
		}
	}
	if st.SharedValue("rec") != 0 {
		t.Fatal("record not reset")
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := []string{
		"",                       // empty
		"payment,a,b",            // short line
		"payment,a,b,notanumber", // bad amount
		"payment,a,b,-5",         // negative
		"teleport,a,b,5",         // unknown kind
		"multipay,a,b,c,1",       // short multipay
		"contract,a,rec,1",       // short contract
	}
	for _, in := range cases {
		if _, err := ReadTrace(strings.NewReader(in), 100); err == nil {
			t.Fatalf("input %q accepted", in)
		}
	}
}

func TestWriteTraceRejectsExotic(t *testing.T) {
	// Three payers are not representable in the trace format.
	tx := types.NewMultiPayment("a", []types.Transfer{
		{From: "a", To: "z", Amount: 1},
		{From: "b", To: "z", Amount: 1},
		{From: "c", To: "z", Amount: 1},
	}, 1)
	if err := WriteTrace(&bytes.Buffer{}, []*types.Transaction{tx}); err == nil {
		t.Fatal("three-payer tx serialized")
	}
}

func TestGeneratorExportReplay(t *testing.T) {
	g := New(Config{Seed: 5, Accounts: 100})
	var buf bytes.Buffer
	if err := g.Export(&buf, 200); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 200 {
		t.Fatalf("exported %d", tr.Len())
	}
	payments := 0
	for i := 0; i < 200; i++ {
		tx := tr.Next()
		if err := tx.Validate(); err != nil {
			t.Fatalf("replayed invalid tx: %v", err)
		}
		if tx.Kind() == types.Payment {
			payments++
		}
	}
	if payments < 60 || payments > 130 {
		t.Fatalf("payment mix lost in export: %d/200", payments)
	}
}
