package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCleanPackagesPass runs the checker over the packages CI gates on,
// the public SDK packages included.
func TestCleanPackagesPass(t *testing.T) {
	var out bytes.Buffer
	dirs := []string{
		"../../orthrus",
		"../../orthrus/scenariodsl",
		"../../internal/registry",
		"../../internal/scenario",
		"../../internal/partition",
		"../../internal/order",
		"../../internal/baseline",
	}
	if err := run(dirs, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "clean") {
		t.Fatalf("unexpected output: %s", out.String())
	}
}

// TestAPISurfaceGoldens is the API-surface gate: the public packages'
// exported API must match the snapshots under docs/api/. An intentional
// API change regenerates them with
//
//	go run ./cmd/doccheck -surface ./orthrus > docs/api/orthrus.txt
//	go run ./cmd/doccheck -surface ./orthrus/scenariodsl > docs/api/orthrus_scenariodsl.txt
func TestAPISurfaceGoldens(t *testing.T) {
	cases := []struct{ dir, golden string }{
		{"../../orthrus", "../../docs/api/orthrus.txt"},
		{"../../orthrus/scenariodsl", "../../docs/api/orthrus_scenariodsl.txt"},
	}
	for _, c := range cases {
		var got bytes.Buffer
		if err := surface(c.dir, &got); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Errorf("%s: API surface drifted from %s — if the change is intentional, regenerate the snapshot (see test doc)\n--- got ---\n%s",
				c.dir, c.golden, got.String())
		}
	}
}

// TestSurfaceSkipsUnexported checks the surface renderer's filtering:
// unexported symbols, methods on unexported types and unexported struct
// fields stay out of the snapshot.
func TestSurfaceSkipsUnexported(t *testing.T) {
	dir := t.TempDir()
	src := `package x

type Public struct {
	Visible int
	hidden  int
}

type private struct{ X int }

func (p private) Method() {}

func (p Public) Method() {}

func helper() {}

const C = 1
const d = 2

var Exported, internalCache = 1, 2
`
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := surface(dir, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"type Public struct", "Visible", "func (p Public) Method()", "const C = 1", "var Exported = 1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("surface missing %q:\n%s", want, s)
		}
	}
	for _, banned := range []string{"hidden", "private", "helper", "d = 2", "internalCache"} {
		if strings.Contains(s, banned) {
			t.Fatalf("surface leaks %q:\n%s", banned, s)
		}
	}
}

// TestSurfaceExpandsModuleAliases renders testdata/alias/api, whose types
// are aliases of a sibling package's: the surface must list what each alias
// makes public — the aliased type's declaration and exported methods,
// through a chain of aliases, every line naming the type it belongs to,
// nothing unexported, nothing for a type outside the module — and must
// change when the aliased type does, which is what lets the golden gate see
// a breaking change made below the public package.
func TestSurfaceExpandsModuleAliases(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/alias")); err != nil {
		t.Fatal(err)
	}
	render := func() string {
		var out bytes.Buffer
		if err := surface(filepath.Join(dir, "api"), &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	const want = `package api

type Doer = impl.Doer
	impl.Doer: type Doer interface{ Do(n int) error }

type Duration = time.Duration

type Level = impl.Level
	impl.Level: type Level = inner.Level
	impl.Level: 	inner.Level: func (l Level) Name() string
	impl.Level: 	inner.Level: type Level int

type Thing = impl.Thing
	impl.Thing: func (t *Thing) Grow(by int) *Thing
	impl.Thing: func (t Thing) String() string
	impl.Thing: type Thing struct {
	impl.Thing:         Count      int
	impl.Thing:         Start, End int
	impl.Thing: }
`
	if got := render(); got != want {
		t.Fatalf("alias expansion:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// The two edits the gate used to miss: a renamed method and a new field
	// on an aliased type.
	impl := filepath.Join(dir, "impl", "impl.go")
	src, err := os.ReadFile(impl)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.NewReplacer(") Grow(", ") Enlarge(", "\tCount ", "\tAdded bool\n\tCount ").Replace(string(src))
	if err := os.WriteFile(impl, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	got := render()
	for _, line := range []string{"impl.Thing: func (t *Thing) Enlarge(by int) *Thing\n", "impl.Thing:         Added      bool\n"} {
		if !strings.Contains(got, line) {
			t.Errorf("surface after editing the alias target misses %q:\n%s", line, got)
		}
	}
	if strings.Contains(got, "Grow") {
		t.Errorf("surface still lists the renamed method:\n%s", got)
	}
}

// TestUndocumentedSymbolFails feeds a synthetic package with one
// documented and one undocumented export and expects only the latter
// reported.
func TestUndocumentedSymbolFails(t *testing.T) {
	dir := t.TempDir()
	src := `package x

// Documented is fine.
func Documented() {}

func Undocumented() {}

type Missing struct{}

// Grouped declarations are covered by the group comment.
const (
	A = 1
	B = 2
)
`
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{dir}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("undocumented symbols passed")
	}
	msg := err.Error()
	for _, want := range []string{"Undocumented", "Missing"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error does not name %s: %v", want, err)
		}
	}
	for _, clean := range []string{"Documented", ": A", ": B"} {
		if strings.Contains(msg, clean) {
			t.Fatalf("error flags documented symbol %s: %v", clean, err)
		}
	}
}

func TestNoArgsUsage(t *testing.T) {
	if err := run(nil, &bytes.Buffer{}); err == nil {
		t.Fatal("expected usage error")
	}
}
