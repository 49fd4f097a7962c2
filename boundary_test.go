package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestPublicAPIBoundary enforces the SDK boundary: nothing under cmd/ or
// examples/ may import any repro/internal/... package — the public
// packages orthrus and orthrus/scenariodsl are the only supported entry
// points. This pins the api_redesign contract: the internal layers can be
// refactored freely as long as the public surface holds.
//
// One deliberate exception: cmd/orthrus-node is deployment
// infrastructure, not an SDK consumer — it assembles a single replica
// over the raw wire/transport layer (peer tables, TCP framing, the
// per-process node loop), a level the SDK intentionally does not expose;
// orthrus.Run covers the whole-cluster in-process case instead.
func TestPublicAPIBoundary(t *testing.T) {
	fset := token.NewFileSet()
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			if strings.HasPrefix(filepath.ToSlash(path), "cmd/orthrus-node/") {
				return nil
			}
			file, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range file.Imports {
				target, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					return err
				}
				if strings.HasPrefix(target, "repro/internal/") || target == "repro/internal" {
					t.Errorf("%s imports %s: cmd/ and examples/ must build exclusively against the public orthrus packages", path, target)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRealPathDoesNotLinkSimulator pins the import graph of everything a
// real replica is made of: the state machines, the codec, the transports
// and the daemon run against types.Clock and must not (transitively, test
// files aside) import the discrete-event simulator.
func TestRealPathDoesNotLinkSimulator(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps",
		"./internal/core", "./internal/pbft", "./internal/metrics", "./internal/wire",
		"./internal/transport", "./cmd/orthrus-node").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "repro/internal/simnet" {
			t.Fatal("a real-path package depends on repro/internal/simnet; schedule against types.Clock instead")
		}
	}
}
