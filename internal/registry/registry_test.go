package registry

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

func testProto(name string) Protocol {
	return Protocol{Name: name, Description: name + " test protocol", New: core.OrthrusMode}
}

func TestRegisterAndLookup(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(testProto("A")); err != nil {
		t.Fatal(err)
	}
	p, err := r.Lookup("A")
	if err != nil {
		t.Fatal(err)
	}
	// The registered name replaces the constructor's Mode.Name; the rest
	// of the Mode is the constructor's.
	if m := p.New(); p.Name != "A" || m.Name != "A" || !m.FastPathPayments {
		t.Fatalf("lookup returned %+v, mode %+v", p, m)
	}
}

func TestRegisterDuplicate(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(testProto("A")); err != nil {
		t.Fatal(err)
	}
	err := r.Register(testProto("A"))
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("want ErrDuplicate, got %v", err)
	}
	// The failed registration must not disturb the table.
	if got := r.Names(); len(got) != 1 || got[0] != "A" {
		t.Fatalf("names after duplicate = %v", got)
	}
}

func TestRegisterRejectsInvalid(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(Protocol{Name: "", New: core.OrthrusMode}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := r.Register(Protocol{Name: "X"}); err == nil {
		t.Fatal("nil constructor accepted")
	}
}

func TestLookupUnknown(t *testing.T) {
	r := NewRegistry()
	_ = r.Register(testProto("A"))
	_, err := r.Lookup("B")
	if !errors.Is(err, ErrUnknown) {
		t.Fatalf("want ErrUnknown, got %v", err)
	}
	// The error must name what is registered, so CLI users see their options.
	if !strings.Contains(err.Error(), "A") {
		t.Fatalf("error does not list registered protocols: %v", err)
	}
}

func TestAllPreservesRegistrationOrder(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"C", "A", "B"} {
		if err := r.Register(testProto(name)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, p := range r.All() {
		got = append(got, p.Name)
	}
	want := []string{"C", "A", "B"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("All() order = %v, want %v", got, want)
		}
	}
}

func TestDefaultHasOrthrusFirst(t *testing.T) {
	names := Names()
	if len(names) == 0 || names[0] != "Orthrus" {
		t.Fatalf("default registry names = %v, want Orthrus first", names)
	}
	p, err := Lookup("Orthrus")
	if err != nil {
		t.Fatal(err)
	}
	mode := p.New()
	if !mode.FastPathPayments || !mode.SplitMultiPayer {
		t.Fatalf("registered Orthrus mode lost its flags: %+v", mode)
	}
}
