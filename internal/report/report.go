// Package report turns run artifacts — manifests, JSONL traces,
// machine-readable results documents, and BENCH_*.json perf snapshots —
// into a self-contained Markdown/HTML report. It is the aggregation side
// of the observability layer: cmd/dtmsim and cmd/experiments leave
// documents behind in a directory, cmd/dtmreport points this package at
// the directory, and out comes a thermal timeline per trace, the paper's
// policy comparison table checked against its golden envelopes, and the
// recorded perf trajectory across snapshots.
//
// All documents are discriminated by a top-level "kind" field ("manifest",
// "bench", "results", "stageprofile"); .jsonl files are schema-v1 traces.
// LoadDir
// classifies by content, not by file name, so artifact naming is free.
// Rendering is deterministic: inputs are sorted, floats are printed with
// fixed precision, and nothing in the output depends on the clock or the
// host — the same inputs always produce the same bytes (pinned by a
// golden test).
package report

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hybriddtm/internal/experiments"
	"hybriddtm/internal/obs"
	"hybriddtm/internal/stats"
)

// ResultsSchemaVersion identifies the results document schema.
const ResultsSchemaVersion = 1

// KindResults is the "kind" discriminator of results documents.
const KindResults = "results"

// Results is the machine-readable outcome of one CLI invocation:
// per-run measurements from dtmsim and/or figure reproductions from the
// experiments driver. All values are finite — ±Inf t-statistics from
// degenerate paired tests are clamped before serialization.
type Results struct {
	Kind   string `json:"kind"` // always "results"
	Schema int    `json:"schema"`
	Tool   string `json:"tool"`

	Runs  []Run        `json:"runs,omitempty"`
	Fig3a []Fig3aSweep `json:"fig3a,omitempty"`
	Fig4  []Fig4Table  `json:"fig4,omitempty"`
}

// Run is one benchmark × policy measurement.
type Run struct {
	Benchmark   string  `json:"benchmark"`
	Policy      string  `json:"policy"`
	Slowdown    float64 `json:"slowdown"`
	MaxTemp     float64 `json:"max_temp_c"`
	Violated    bool    `json:"violated"`
	DVSSwitches int     `json:"dvs_switches"`
}

// Fig3aSweep is the PI-Hyb crossover sweep (paper Figure 3a).
type Fig3aSweep struct {
	Stall    bool      `json:"stall"`
	Rows     []DutyRow `json:"rows"`
	BestDuty float64   `json:"best_duty"`
}

// DutyRow is one duty-cycle point of a sweep.
type DutyRow struct {
	Duty         float64 `json:"duty"`
	MeanSlowdown float64 `json:"mean_slowdown"`
	Violations   bool    `json:"violations"`
}

// Fig4Table is the policy comparison (paper Figure 4) for one DVS mode.
type Fig4Table struct {
	Stall      bool        `json:"stall"`
	Benchmarks []string    `json:"benchmarks"`
	Policies   []PolicyRow `json:"policies"`
}

// PolicyRow is one policy's column of a Fig4Table.
type PolicyRow struct {
	Name       string    `json:"name"`
	Slowdowns  []float64 `json:"slowdowns"` // in Benchmarks order
	Mean       float64   `json:"mean"`
	Violations bool      `json:"violations"`
	// Vs DVS (zero for the DVS row itself, or when untested).
	OverheadReduction float64 `json:"overhead_reduction,omitempty"`
	PValue            float64 `json:"p_value,omitempty"`
	Significant99     bool    `json:"significant_99,omitempty"`
}

// finite clamps non-finite values for JSON encoding (a degenerate paired
// t-test yields t=±Inf, p→0).
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// NewResults returns an empty results document for a tool.
func NewResults(tool string) Results {
	return Results{Kind: KindResults, Schema: ResultsSchemaVersion, Tool: tool}
}

// AddRuns appends per-run measurements.
func (r *Results) AddRuns(ms []experiments.Measurement) {
	for _, m := range ms {
		r.Runs = append(r.Runs, Run{
			Benchmark:   m.Benchmark,
			Policy:      m.Policy,
			Slowdown:    finite(m.Slowdown),
			MaxTemp:     finite(m.Result.MaxTemp),
			Violated:    m.Result.Violated(),
			DVSSwitches: m.Result.DVSSwitches,
		})
	}
}

// AddFig3a appends a crossover sweep.
func (r *Results) AddFig3a(f experiments.Fig3aResult) {
	sweep := Fig3aSweep{Stall: f.Stall, BestDuty: f.BestDuty()}
	for _, row := range f.Rows {
		sweep.Rows = append(sweep.Rows, DutyRow{
			Duty: row.DutyCycle, MeanSlowdown: finite(row.MeanSlowdown), Violations: row.Violations,
		})
	}
	r.Fig3a = append(r.Fig3a, sweep)
}

// AddFig4 appends a policy comparison.
func (r *Results) AddFig4(f experiments.Fig4Result) {
	tbl := Fig4Table{Stall: f.Stall, Benchmarks: f.Benchmarks}
	for _, name := range experiments.Fig4PolicyOrder {
		slow, ok := f.Policies[name]
		if !ok {
			continue
		}
		row := PolicyRow{
			Name:       name,
			Slowdowns:  slow,
			Mean:       finite(f.Mean(name)),
			Violations: f.Violations[name],
		}
		if t, ok := f.VsDVS[name]; ok {
			row.OverheadReduction = finite(f.OverheadReduction(name))
			row.PValue = finite(t.P)
			row.Significant99 = t.SignificantAt(0.99)
		}
		tbl.Policies = append(tbl.Policies, row)
	}
	r.Fig4 = append(r.Fig4, tbl)
}

// Validate checks the discriminator and schema version.
func (r Results) Validate() error {
	if r.Kind != KindResults {
		return fmt.Errorf("report: results kind %q, want %q", r.Kind, KindResults)
	}
	if r.Schema > ResultsSchemaVersion || r.Schema < 1 {
		return fmt.Errorf("report: results schema %d not supported (have %d)", r.Schema, ResultsSchemaVersion)
	}
	return nil
}

// WriteFile writes the document as indented JSON.
func (r Results) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("report: results: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Policy returns the named policy row of a table.
func (t Fig4Table) Policy(name string) (PolicyRow, bool) {
	for _, p := range t.Policies {
		if p.Name == name {
			return p, true
		}
	}
	return PolicyRow{}, false
}

// Envelope is the golden acceptance region from the paper's headline
// numbers (see golden_test.go at the repository root): where the PI-Hyb
// crossover sweep must bottom out, and that the hybrid policies must beat
// stand-alone DVS without thermal violations.
type Envelope struct {
	BestDutyStall float64 // Fig 3a minimum under DVS-stall
	BestDutyIdeal float64 // Fig 3a minimum under DVS-ideal
}

// PaperEnvelope is the default acceptance region (§5 of the paper).
var PaperEnvelope = Envelope{BestDutyStall: 3, BestDutyIdeal: 20}

// Check is one pass/fail verdict against the envelope.
type Check struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// Evaluate checks every figure in the results documents against the
// envelope. No applicable data yields no checks.
func (e Envelope) Evaluate(docs []Results) []Check {
	var checks []Check
	add := func(name string, pass bool, detail string) {
		checks = append(checks, Check{Name: name, Pass: pass, Detail: detail})
	}
	mode := func(stall bool) string {
		if stall {
			return "DVS-stall"
		}
		return "DVS-ideal"
	}
	for _, doc := range docs {
		for _, sweep := range doc.Fig3a {
			want := e.BestDutyIdeal
			if sweep.Stall {
				want = e.BestDutyStall
			}
			add(fmt.Sprintf("fig3a %s crossover", mode(sweep.Stall)),
				stats.SameFloat(sweep.BestDuty, want),
				fmt.Sprintf("best duty %g, want %g", sweep.BestDuty, want))
		}
		for _, tbl := range doc.Fig4 {
			dvs, ok := tbl.Policy("DVS")
			if !ok {
				continue
			}
			for _, name := range []string{"PI-Hyb", "Hyb"} {
				p, ok := tbl.Policy(name)
				if !ok {
					continue
				}
				add(fmt.Sprintf("fig4 %s %s beats DVS", mode(tbl.Stall), name),
					p.Mean < dvs.Mean,
					fmt.Sprintf("mean %.4f vs DVS %.4f", p.Mean, dvs.Mean))
				add(fmt.Sprintf("fig4 %s %s violation-free", mode(tbl.Stall), name),
					!p.Violations,
					fmt.Sprintf("violations=%v", p.Violations))
			}
		}
	}
	return checks
}

// Report is everything LoadDir found, ready to render.
type Report struct {
	Dirs          []string
	Manifests     []obs.Manifest
	Traces        []TraceSummary
	Results       []Results
	Snapshots     []obs.BenchSnapshot
	StageProfiles []obs.StageProfile
	Checks        []Check
	Skipped       []string // files present but not classifiable
}

// LoadDir ingests every artifact in the given directories (non-recursive;
// later directories append). Files are classified by content: .jsonl as
// schema-v1 traces, .json by their "kind" field. Unclassifiable files are
// recorded in Skipped, not errors — report directories often hold other
// artifacts (pprof profiles, logs).
func LoadDir(dirs ...string) (*Report, error) {
	rep := &Report{Dirs: dirs}
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
		for _, ent := range entries {
			if ent.IsDir() {
				continue
			}
			name := ent.Name()
			path := filepath.Join(dir, name)
			switch {
			case strings.HasSuffix(name, ".jsonl"):
				tr, err := ReadTraceFile(path)
				if err != nil {
					rep.Skipped = append(rep.Skipped, fmt.Sprintf("%s: %v", name, err))
					continue
				}
				rep.Traces = append(rep.Traces, tr)
			case strings.HasSuffix(name, ".json"):
				if err := rep.loadJSON(path); err != nil {
					rep.Skipped = append(rep.Skipped, fmt.Sprintf("%s: %v", name, err))
				}
			default:
				rep.Skipped = append(rep.Skipped, name+": not a report artifact")
			}
		}
	}
	// Stable presentation order regardless of directory layout.
	sort.Slice(rep.Traces, func(i, j int) bool { return rep.Traces[i].File < rep.Traces[j].File })
	sort.SliceStable(rep.Manifests, func(i, j int) bool {
		a, b := rep.Manifests[i], rep.Manifests[j]
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		return a.Tool < b.Tool
	})
	sort.SliceStable(rep.Results, func(i, j int) bool { return rep.Results[i].Tool < rep.Results[j].Tool })
	sort.Slice(rep.Snapshots, func(i, j int) bool {
		a, b := rep.Snapshots[i], rep.Snapshots[j]
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		return a.GitSHA < b.GitSHA
	})
	sort.SliceStable(rep.StageProfiles, func(i, j int) bool {
		a, b := rep.StageProfiles[i], rep.StageProfiles[j]
		if a.Tool != b.Tool {
			return a.Tool < b.Tool
		}
		if a.Benchmark != b.Benchmark {
			return a.Benchmark < b.Benchmark
		}
		return a.Policy < b.Policy
	})
	rep.Checks = PaperEnvelope.Evaluate(rep.Results)
	return rep, nil
}

// loadJSON classifies one .json document by its "kind" field.
func (r *Report) loadJSON(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var kind struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(data, &kind); err != nil {
		return fmt.Errorf("not JSON: %w", err)
	}
	switch kind.Kind {
	case obs.KindManifest:
		m, err := obs.LoadManifest(path)
		if err != nil {
			return err
		}
		r.Manifests = append(r.Manifests, m)
	case obs.KindBench:
		s, err := obs.LoadBenchSnapshot(path)
		if err != nil {
			return err
		}
		r.Snapshots = append(r.Snapshots, s)
	case obs.KindStageProfile:
		s, err := obs.LoadStageProfile(path)
		if err != nil {
			return err
		}
		r.StageProfiles = append(r.StageProfiles, s)
	case KindResults:
		var res Results
		if err := json.Unmarshal(data, &res); err != nil {
			return err
		}
		if err := res.Validate(); err != nil {
			return err
		}
		r.Results = append(r.Results, res)
	default:
		return fmt.Errorf("unknown document kind %q", kind.Kind)
	}
	return nil
}
