package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The benchmark's footprint in the program. The end-to-end driver sees
// only the golden-gated public SDK, so internal refactors cannot move the
// numbers they are judged by; the probes see exactly the layers they time.
// A change that needs a wider footprint changes the benchmark first, in a
// change of its own.
var allowedImports = map[string][]string{
	"e2e": {
		"repro/orthrus", "repro/orthrus/scenariodsl",
		"repro/benchmark/gen", "repro/benchmark/report",
	},
	"layers": {
		"repro/orthrus",
		"repro/internal/types", "repro/internal/pbft", "repro/internal/wire", "repro/internal/partition",
		"repro/internal/order", "repro/internal/ledger", "repro/internal/simnet",
		"repro/benchmark/gen", "repro/benchmark/report",
	},
}

// pbftNames are the message structs, the only part of pbft a probe may
// touch: its engine's constructor takes a simulator node.
var pbftNames = map[string]bool{
	"PrePrepare": true, "Prepare": true, "Commit": true,
	"ViewChange": true, "NewView": true, "PreparedEntry": true,
}

func TestImportBoundary(t *testing.T) {
	fset := token.NewFileSet()
	for dir, allowed := range allowedImports {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no source files (%v)", dir, err)
		}
		for _, path := range files {
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range file.Imports {
				target, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				first, _, _ := strings.Cut(target, "/")
				if first != "repro" && !strings.Contains(first, ".") {
					continue // standard library
				}
				ok := false
				for _, a := range allowed {
					ok = ok || a == target
				}
				if !ok {
					t.Errorf("%s imports %s: outside benchmark/%s's pinned footprint %v", path, target, dir, allowed)
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "pbft" && !pbftNames[sel.Sel.Name] {
						t.Errorf("%s uses pbft.%s: probes may use pbft's message structs only", path, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
}
