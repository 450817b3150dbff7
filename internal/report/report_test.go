package report

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybriddtm/internal/experiments"
	"hybriddtm/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden report files")

// loadGolden builds the report from the committed fixtures: the schema-v1
// trace golden in internal/core/testdata plus this package's manifest,
// results, and snapshot fixtures.
func loadGolden(t *testing.T) *Report {
	t.Helper()
	rep, err := LoadDir(filepath.Join("testdata", "golden_input"), filepath.Join("..", "core", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestLoadDirClassification(t *testing.T) {
	rep := loadGolden(t)
	if len(rep.Manifests) != 1 || rep.Manifests[0].Tool != "dtmsim" {
		t.Errorf("manifests = %+v, want one from dtmsim", rep.Manifests)
	}
	if len(rep.Traces) != 1 || rep.Traces[0].Benchmark != "bzip2" || rep.Traces[0].Policy != "hyb" {
		t.Fatalf("traces = %+v, want one bzip2/hyb", rep.Traces)
	}
	tr := rep.Traces[0]
	if len(tr.Points) == 0 || tr.Duration <= 0 {
		t.Errorf("trace timeline empty: points=%d duration=%g", len(tr.Points), tr.Duration)
	}
	if tr.Events <= 0 {
		t.Errorf("trace events = %d", tr.Events)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("results = %d docs, want 1", len(rep.Results))
	}
	if len(rep.Snapshots) != 2 {
		t.Fatalf("snapshots = %d, want 2", len(rep.Snapshots))
	}
	if len(rep.StageProfiles) != 1 || rep.StageProfiles[0].Benchmark != "bzip2" || rep.StageProfiles[0].Policy != "hyb" {
		t.Fatalf("stage profiles = %+v, want one bzip2/hyb", rep.StageProfiles)
	}
	// Trajectory is oldest-first.
	if !rep.Snapshots[0].Start.Before(rep.Snapshots[1].Start) {
		t.Error("snapshots not sorted by start time")
	}
	// The CSV trace next to the JSONL golden is skipped, not an error.
	foundCSV := false
	for _, s := range rep.Skipped {
		if strings.Contains(s, ".csv") {
			foundCSV = true
		}
	}
	if !foundCSV {
		t.Errorf("CSV sibling not in skipped list: %v", rep.Skipped)
	}
}

func TestEnvelopeChecks(t *testing.T) {
	rep := loadGolden(t)
	if len(rep.Checks) != 6 { // 2 fig3a crossovers + (beats DVS + violation-free) × 2 hybrids
		t.Fatalf("checks = %d, want 6: %+v", len(rep.Checks), rep.Checks)
	}
	for _, c := range rep.Checks {
		if !c.Pass {
			t.Errorf("fixture check failed: %s (%s)", c.Name, c.Detail)
		}
	}

	// A sweep bottoming out at the wrong duty must fail its check.
	bad := NewResults("experiments")
	bad.Fig3a = []Fig3aSweep{{Stall: true, BestDuty: 5}}
	checks := PaperEnvelope.Evaluate([]Results{bad})
	if len(checks) != 1 || checks[0].Pass {
		t.Errorf("wrong crossover passed: %+v", checks)
	}
}

func TestResultsConverters(t *testing.T) {
	var f experiments.Fig3aResult
	f.Stall = true
	f.Rows = []experiments.Fig3aRow{
		{DutyCycle: 5, MeanSlowdown: 1.06},
		{DutyCycle: 3, MeanSlowdown: 1.05},
	}
	doc := NewResults("experiments")
	doc.AddFig3a(f)
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	if doc.Fig3a[0].BestDuty != 3 {
		t.Errorf("best duty = %g, want 3", doc.Fig3a[0].BestDuty)
	}

	// Documents must stay JSON-encodable even when the t-test degenerates
	// to ±Inf statistics (identical slowdown columns).
	f4 := experiments.Fig4Result{
		Stall:      true,
		Benchmarks: []string{"a", "b"},
		Policies: map[string][]float64{
			"FG": {1.2, 1.2}, "DVS": {1.1, 1.1}, "PI-Hyb": {1.05, 1.05}, "Hyb": {1.04, 1.04},
		},
		Violations: map[string]bool{},
	}
	doc2 := NewResults("experiments")
	doc2.AddFig4(f4)
	path := filepath.Join(t.TempDir(), "results.json")
	if err := doc2.WriteFile(path); err != nil {
		t.Fatalf("WriteFile with degenerate stats: %v", err)
	}
	if doc2.Fig4[0].Policies[1].Name != "DVS" {
		t.Errorf("policy order = %+v, want Fig4PolicyOrder", doc2.Fig4[0].Policies)
	}
}

// TestGoldenReport pins the rendered report byte-for-byte. Regenerate
// with: go test ./internal/report -run TestGoldenReport -update
func TestGoldenReport(t *testing.T) {
	rep := loadGolden(t)
	for _, tc := range []struct {
		golden string
		got    []byte
	}{
		{filepath.Join("testdata", "golden_report.html"), rep.HTML()},
		{filepath.Join("testdata", "golden_report.md"), rep.Markdown()},
	} {
		if *update {
			if err := os.WriteFile(tc.golden, tc.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if !bytes.Equal(tc.got, want) {
			t.Errorf("%s drifted from the golden file (run with -update after intentional changes); got %d bytes, want %d",
				tc.golden, len(tc.got), len(want))
		}
	}

	html := string(rep.HTML())
	for _, want := range []string{
		"<svg", // inline thermal timeline
		"Timeline: bzip2 under hyb",
		"Policy comparison",
		"Performance trajectory",
		"Where the time goes: bzip2 under hyb",
		"cpu.commit",
		"PASS",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("HTML report missing %q", want)
		}
	}
	md := string(rep.Markdown())
	if !strings.Contains(md, "| policy (DVS-stall) | mean slowdown |") {
		t.Errorf("Markdown report missing the policy table:\n%.400s", md)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	_, err := ReadTrace(strings.NewReader("{\"ev\":\"step\",\"t\":0}\n"), "x.jsonl")
	if err == nil || !strings.Contains(err.Error(), "begin") {
		t.Errorf("headerless trace accepted: %v", err)
	}
	_, err = ReadTrace(strings.NewReader("not json\n"), "x.jsonl")
	if err == nil {
		t.Error("non-JSON trace accepted")
	}
	newer := fmt.Sprintf("{\"ev\":\"begin\",\"schema\":%d}\n", obs.SchemaVersion+1)
	_, err = ReadTrace(strings.NewReader(newer), "x.jsonl")
	if err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Errorf("trace from a newer schema accepted: %v", err)
	}
}

// TestReadTraceTolerates covers traces the reader summarizes rather than
// rejects: a truncated trace without its end footer, and record kinds a
// newer writer may add, which count as events but feed no bucket.
func TestReadTraceTolerates(t *testing.T) {
	begin := fmt.Sprintf(`{"ev":"begin","schema":%d,"trigger_c":81.8}`, obs.SchemaVersion)
	step := `{"ev":"step","t":0.001,"dt":0.001,"max_t":82,"level":1}`
	for _, tc := range []struct {
		name     string
		lines    []string
		events   int64
		switches int64
		crossed  int64
	}{
		{"no footer", []string{begin, step, `{"ev":"actuation","switch":true}`, `{"ev":"crossing","threshold":"trigger","above":true}`}, 3, 1, 1},
		{"unknown kind", []string{begin, `{"ev":"hologram","dt":5,"switch":true,"above":true,"threshold":"trigger"}`, step}, 2, 0, 0},
		{"footer wins", []string{begin, step, `{"ev":"end","events":7}`}, 7, 0, 0},
	} {
		sum, err := ReadTrace(strings.NewReader(strings.Join(tc.lines, "\n")+"\n"), "x.jsonl")
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if sum.Events != tc.events || sum.DVSSwitches != tc.switches || sum.TriggerCrossings != tc.crossed {
			t.Errorf("%s: events %d, switches %d, crossings %d; want %d, %d, %d", tc.name,
				sum.Events, sum.DVSSwitches, sum.TriggerCrossings, tc.events, tc.switches, tc.crossed)
		}
		if len(sum.Points) != 1 || sum.Duration != 0.001 || sum.AboveTrigger != 0.001 || sum.LowV != 0.001 {
			t.Errorf("%s: step not folded once: %+v", tc.name, sum)
		}
	}
}
