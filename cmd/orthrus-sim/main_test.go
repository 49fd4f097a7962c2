package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsUnknownProtocol(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-protocol", "Nope"}, &out, &errOut); err == nil {
		t.Fatal("expected an error for an unknown protocol")
	}
}

// TestRunRejectsMistypedEnumFlags pins that a -net value outside its two
// spellings is an error naming it, not a silent default (a mistyped -net
// used to run, and label its output, as WAN).
func TestRunRejectsMistypedEnumFlags(t *testing.T) {
	for _, c := range []struct{ flag, value, want string }{
		{"-net", "lna", `unknown network "lna" (want wan or lan)`},
		{"-net", "LAN", `unknown network "LAN" (want wan or lan)`},
	} {
		var out, errOut bytes.Buffer
		err := run([]string{"-n", "4", "-duration", "1s", c.flag, c.value}, &out, &errOut)
		if err == nil || err.Error() != c.want {
			t.Fatalf("run(%s %s) = %v, want %q", c.flag, c.value, err, c.want)
		}
		if out.Len() != 0 {
			t.Fatalf("rejected run wrote a summary: %q", out.String())
		}
	}
}

func TestRunParseErrorGoesToStderr(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-n", "abc"}, &out, &errOut); err == nil {
		t.Fatal("expected a parse error")
	}
	if out.Len() != 0 {
		t.Fatalf("parse error leaked to stdout: %q", out.String())
	}
	if !strings.Contains(errOut.String(), "invalid value") {
		t.Fatalf("stderr missing parse error: %q", errOut.String())
	}
}

// TestRunTinyCluster drives a minimal configuration end to end and checks
// the summary markers.
func TestRunTinyCluster(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-protocol", "Orthrus", "-n", "4", "-net", "lan",
		"-load", "300", "-duration", "2s", "-batch", "64"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, marker := range []string{"protocol     Orthrus", "network      LAN", "confirmed", "view changes", "breakdown"} {
		if !strings.Contains(s, marker) {
			t.Fatalf("output missing %q:\n%s", marker, s)
		}
	}
}

// TestRunScenarioFile drives a run from a scenario-DSL file and checks the
// per-phase windows show up under the file's base name.
func TestRunScenarioFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mini-chaos.scn")
	src := "500ms straggle x5 3\n1s crash 3\n1500ms recover 3\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	args := []string{"-protocol", "Orthrus", "-n", "4", "-net", "lan",
		"-load", "300", "-duration", "2s", "-batch", "64", "-scenario-file", path}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, marker := range []string{"phases       (mini-chaos scenario windows)", "baseline", "straggle", "crash", "recover"} {
		if !strings.Contains(s, marker) {
			t.Fatalf("output missing %q:\n%s", marker, s)
		}
	}
	var both bytes.Buffer
	if err := run(append(args, "-scenario", "crash-recover"), &both, &both); err == nil {
		t.Fatal("expected -scenario + -scenario-file to be rejected")
	}
	if err := run([]string{"-scenario-file", filepath.Join(t.TempDir(), "missing.scn")}, &out, &errOut); err == nil {
		t.Fatal("expected missing scenario file to error")
	}
}

// TestRunRejectsFlagCombinations pins that combinations of individually
// valid flags are rejected by the SDK's Validate, before anything runs
// (nothing reaches stdout), under the name of the offending Config field.
func TestRunRejectsFlagCombinations(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"scenario with analytic", []string{"-n", "4", "-scenario", "partition-heal", "-analytic"}, "invalid Scenario"},
		// Non-finite floats parse as flags; a NaN load used to pass Validate
		// and allocate until the process died.
		{"NaN load", []string{"-n", "4", "-duration", "5s", "-load", "NaN"}, "invalid LoadTPS"},
		{"infinite load", []string{"-n", "4", "-duration", "5s", "-load", "+Inf"}, "invalid LoadTPS"},
		{"NaN payments", []string{"-n", "4", "-duration", "5s", "-payments", "NaN"}, "invalid PaymentFraction"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			err := run(c.args, &out, &errOut)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("run(%v) = %v, want an error containing %q", c.args, err, c.want)
			}
			if out.Len() != 0 {
				t.Fatalf("rejected run wrote a summary: %q", out.String())
			}
		})
	}
}
