package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The grids, the artifact schema and the gate are tested where they live
// (internal/perf); measuring a real grid takes minutes, so these tests
// pin only the CLI seams in front of it, all of which fail before any
// cell runs.

// TestBenchFlagConflicts: the two grids are mutually exclusive,
// figure-mode flags are rejected with either, and -compare needs one.
func TestBenchFlagConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "-bench-net"},
		{"-bench", "-fig", "3"},
		{"-bench-net", "-fig", "3"},
		{"-bench-net", "-scale", "0.5"},
		{"-bench", "-parallel", "1"},
		{"-compare", "old.json"},
	} {
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut); err == nil {
			t.Fatalf("run(%v) accepted conflicting flags", args)
		}
	}
}

// TestBenchCompareFailsFast: an unreadable or foreign baseline is
// reported before anything is measured (the test would otherwise run for
// minutes) and leaves no artifact behind.
func TestBenchCompareFailsFast(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	old := filepath.Join(dir, "v2.json")
	if err := os.WriteFile(old, []byte(`{"schema":"orthrus-bench-perf/v2","cells":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"-bench", "-bench-net"} {
		var out, errOut bytes.Buffer
		if err := run([]string{mode, "-compare", filepath.Join(dir, "absent.json")}, &out, &errOut); err == nil {
			t.Fatalf("%s: missing baseline accepted", mode)
		}
		err := run([]string{mode, "-compare", old}, &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), "schema") {
			t.Fatalf("%s: foreign-schema baseline: err = %v", mode, err)
		}
	}
	for _, name := range []string{"BENCH_scale.json", "BENCH_net.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			t.Fatalf("%s written although the baseline was rejected", name)
		}
	}
}
