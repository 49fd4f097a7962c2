package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/scenario"
)

// TestScenarioParallelMatchesSerial is the determinism regression for the
// scenario engine: an S1 sub-suite run serially and through the worker
// pool must produce identical ScenarioResults (phase windows included) and
// byte-identical rendered text.
func TestScenarioParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six 10-replica scenario clusters twice")
	}
	ids := []string{"S1"}
	names := []string{scenario.CrashRecover, scenario.FlashCrowd}
	serial, err := Run(ids, names, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(ids, names, 6, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("S1 diverged:\nserial   %+v\nparallel %+v", serial, parallel)
	}
	if len(serial[0].Scenarios) != len(names)*len(scenarioProtocols()) {
		t.Fatalf("wrong cell count: %d", len(serial[0].Scenarios))
	}
	for _, s := range serial[0].Scenarios {
		if len(s.Phases) < 2 {
			t.Fatalf("cell %s/%s has no phase windows: %+v", s.Scenario, s.Protocol, s)
		}
	}

	var serialText, parallelText bytes.Buffer
	for _, f := range serial {
		f.Render(&serialText)
	}
	for _, f := range parallel {
		f.Render(&parallelText)
	}
	if serialText.String() != parallelText.String() {
		t.Fatalf("rendered text diverged:\n%s\nvs\n%s", serialText.String(), parallelText.String())
	}
	serialJSON, _ := json.Marshal(serial)
	parallelJSON, _ := json.Marshal(parallel)
	if !bytes.Equal(serialJSON, parallelJSON) {
		t.Fatal("JSON artifacts diverged between serial and parallel runs")
	}
}

// TestS2SerialMatchesParallel extends the determinism regression to the
// adversary suite: the full S2 figure run serially and through the worker
// pool must produce identical results and byte-identical JSON, and every
// attack cell must report phase windows and survive the attack (nonzero
// throughput with at least one view change rotating the victims out).
func TestS2SerialMatchesParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs twelve 10-replica attack clusters twice")
	}
	serial, err := Run([]string{"S2"}, nil, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run([]string{"S2"}, nil, 6, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("S2 diverged:\nserial   %+v\nparallel %+v", serial, parallel)
	}
	serialJSON, _ := json.Marshal(serial)
	parallelJSON, _ := json.Marshal(parallel)
	if !bytes.Equal(serialJSON, parallelJSON) {
		t.Fatal("JSON artifacts diverged between serial and parallel S2 runs")
	}
	if want := len(scenario.AttackNames()) * len(scenarioProtocols()); len(serial[0].Scenarios) != want {
		t.Fatalf("wrong cell count: %d, want %d", len(serial[0].Scenarios), want)
	}
	for _, s := range serial[0].Scenarios {
		if len(s.Phases) != 2 {
			t.Fatalf("cell %s/%s: want baseline+attack phase windows, got %+v", s.Scenario, s.Protocol, s.Phases)
		}
		if s.TputKTPS == 0 {
			t.Fatalf("cell %s/%s confirmed nothing", s.Scenario, s.Protocol)
		}
		if s.ViewChanges == 0 {
			t.Fatalf("cell %s/%s: attack provoked no view change", s.Scenario, s.Protocol)
		}
	}
}

// TestRunScenariosRejectsUnknownName: scenario selection validates against
// the preset registry.
func TestRunScenariosRejectsUnknownName(t *testing.T) {
	if _, err := Run([]string{"S1"}, []string{"no-such"}, 0, 0.1); err == nil {
		t.Fatal("unknown scenario name accepted")
	}
}

// TestScenarioResultJSONRoundTrip extends the artifact round-trip check to
// the v2 scenarios field.
func TestScenarioResultJSONRoundTrip(t *testing.T) {
	in := FigureResult{
		Figure: "S1",
		Title:  "demo",
		Scenarios: []ScenarioResult{{
			Scenario: "crash-recover", Protocol: "Orthrus",
			TputKTPS: 12.5, LatencyS: 0.8, ViewChanges: 3,
			Phases: []PhaseStat{{Label: "baseline", StartS: 0, EndS: 1.5, Confirmed: 100, TputKTPS: 0.07, LatencyS: 0.5}},
		}},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out FigureResult
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\nin  %+v\nout %+v", in, out)
	}
}
