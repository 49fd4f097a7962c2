package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestRunList checks -list enumerates the registry-driven protocol panel,
// figure ids and scenario presets — no hardcoded help text.
func TestRunList(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-list"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, marker := range []string{
		"protocols", "Orthrus", "ISS", "Mir", "DQBFT", "Ladon",
		"figures", "S1",
		"scenarios", "crash-recover", "rolling-stragglers", "partition-heal", "flash-crowd",
	} {
		if !strings.Contains(s, marker) {
			t.Fatalf("-list output missing %q:\n%s", marker, s)
		}
	}
	if errOut.Len() != 0 {
		t.Fatalf("-list wrote to stderr: %s", errOut.String())
	}
}

func TestRunRejectsUnknownFigure(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-fig", "99"}, &out, &errOut); err == nil {
		t.Fatal("expected an error for an unknown figure")
	}
}

func TestRunRejectsEmptySelection(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-fig", " , "}, &out, &errOut); err == nil {
		t.Fatal("expected an error for an empty -fig list")
	}
}

func TestRunRejectsUnknownScenario(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-fig", "S1", "-scenario", "no-such"}, &out, &errOut); err == nil {
		t.Fatal("expected an error for an unknown scenario name")
	}
}

// TestRunRejectsOutOfRangeScale: the flag check fires before anything runs
// (the default -fig all at a real scale would take minutes) — also for NaN,
// which every comparison written the other way round lets through.
func TestRunRejectsOutOfRangeScale(t *testing.T) {
	for _, scale := range []string{"0", "-1", "1.5", "NaN", "+Inf"} {
		var out, errOut bytes.Buffer
		if err := run([]string{"-scale", scale}, &out, &errOut); err == nil {
			t.Fatalf("expected an error for -scale %s", scale)
		}
		if out.Len() != 0 {
			t.Fatalf("-scale %s rendered figures before failing: %s", scale, out.String())
		}
	}
}

// TestRunFig1bJSONArtifact runs the cheapest figure at tiny scale and
// checks both the text rendering and the JSON artifact.
func TestRunFig1bJSONArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a miniature cluster")
	}
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	var out, errOut bytes.Buffer
	if err := run([]string{"-fig", "1b", "-scale", "0.05", "-json", path}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig 1b") || !strings.Contains(out.String(), "ISS") {
		t.Fatalf("unexpected text output: %s", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc artifact
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if doc.Schema != "orthrus-bench/v2" {
		t.Fatalf("schema %q", doc.Schema)
	}
	if len(doc.Figures) != 1 || doc.Figures[0].Figure != "1b" {
		t.Fatalf("figures %+v", doc.Figures)
	}
	if len(doc.Figures[0].Breakdowns) != 1 || doc.Figures[0].Breakdowns[0].Total <= 0 {
		t.Fatalf("breakdown missing from artifact: %+v", doc.Figures[0])
	}
}

// TestRunNamedOnlyFigureInOrder: X-val goes through the same one call as the
// suite's figures and lands where -fig put it.
func TestRunNamedOnlyFigureInOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("X-val runs wall-clock cells")
	}
	path := filepath.Join(t.TempDir(), "mixed.json")
	var out, errOut bytes.Buffer
	if err := run([]string{"-fig", "X-val,1b", "-scale", "0.05", "-q", "-json", path}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("-q printed: %s", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc artifact
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if doc.Scale != 0.05 || len(doc.Figures) != 2 || doc.Figures[0].Figure != "X-val" || doc.Figures[1].Figure != "1b" {
		t.Fatalf("artifact scale %v, figures %+v", doc.Scale, doc.Figures)
	}
	if len(doc.Figures[0].Tables) != 2 || len(doc.Figures[1].Breakdowns) != 1 {
		t.Fatalf("figures incomplete: %+v", doc.Figures)
	}
}

func TestSelectFigures(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"all", []string{"1b", "3", "4", "5", "6", "7", "8", "S1", "S2", "F-scale"}},
		{"3,3", []string{"3"}},
		{"6, 1b ,6", []string{"6", "1b"}},
		{"3,all", []string{"3", "1b", "4", "5", "6", "7", "8", "S1", "S2", "F-scale"}},
	}
	for _, c := range cases {
		got, err := selectFigures(c.in)
		if err != nil {
			t.Fatalf("selectFigures(%q): %v", c.in, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("selectFigures(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, in := range []string{"", " , "} {
		if _, err := selectFigures(in); err == nil {
			t.Fatalf("selectFigures(%q): expected error", in)
		}
	}
}
