package experiments

import (
	"context"
	"io"
	"math"
	"strings"
	"testing"

	"hybriddtm/internal/core"
	"hybriddtm/internal/obs"
	"hybriddtm/internal/stats"
	"hybriddtm/internal/trace"
)

// tinyOptions shrinks everything so experiment plumbing can be tested in
// seconds; scientific runs use DefaultOptions.
func tinyOptions(t *testing.T) Options {
	t.Helper()
	opts := DefaultOptions()
	opts.Instructions = 300_000
	cfg := core.DefaultConfig()
	cfg.WarmupCycles = 300_000
	cfg.InitCycles = 200_000
	cfg.SettleInstructions = 300_000
	opts.Config = cfg
	p, ok := trace.ByName("gzip")
	if !ok {
		t.Fatal("gzip missing")
	}
	opts.Benchmarks = []trace.Profile{p}
	return opts
}

func TestNewRunnerValidation(t *testing.T) {
	opts := tinyOptions(t)
	opts.Instructions = 0
	if _, err := NewRunner(opts); err == nil {
		t.Error("accepted zero instructions")
	}
	opts = tinyOptions(t)
	opts.Benchmarks = nil
	if _, err := NewRunner(opts); err == nil {
		t.Error("accepted empty benchmark list")
	}
	opts = tinyOptions(t)
	opts.Config.ThermalStepCycles = -1
	if _, err := NewRunner(opts); err == nil {
		t.Error("accepted invalid config")
	}
	// A Tracer serves one run at a time: concurrent runs must not share it.
	opts = tinyOptions(t)
	opts.Config.Tracer = obs.NewJSONL(io.Discard)
	for _, workers := range []int{0, 2} {
		opts.Workers = workers
		if _, err := NewRunner(opts); err == nil || !strings.Contains(err.Error(), "Tracer") {
			t.Errorf("Workers %d with a shared Tracer: err = %v, want a rejection naming Tracer", workers, err)
		}
	}
	opts.Workers = 1
	if _, err := NewRunner(opts); err != nil {
		t.Errorf("serial runner with a Tracer: %v", err)
	}
}

func TestBaselineCaching(t *testing.T) {
	r, err := NewRunner(tinyOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	p := r.Options().Benchmarks[0]
	a, err := r.BaselineContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.BaselineContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	// Cached: identical values (a fresh run would be identical anyway, but
	// the cache must return the same struct content).
	if a.WallTime != b.WallTime || a.Instructions != b.Instructions {
		t.Error("baseline cache returned different results")
	}
}

func TestRunProducesSlowdown(t *testing.T) {
	r, err := NewRunner(tinyOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	p := r.Options().Benchmarks[0]
	ms, err := r.RunJobs(context.Background(), []Job{{Config: r.Options().Config, Profile: p, Factory: DVSPolicy(r.Options().Config)}})
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	if m.Benchmark != "gzip" || m.Policy != "DVS" {
		t.Errorf("labels: %+v", m)
	}
	if m.Slowdown < 0.95 || m.Slowdown > 3 {
		t.Errorf("slowdown %v implausible", m.Slowdown)
	}
}

func TestSuiteOrdering(t *testing.T) {
	opts := tinyOptions(t)
	gcc, _ := trace.ByName("gcc")
	opts.Benchmarks = append(opts.Benchmarks, gcc)
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := r.SuiteContext(context.Background(), opts.Config, FGPolicy(opts.Config))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0].Benchmark != "gzip" || ms[1].Benchmark != "gcc" {
		t.Errorf("suite order wrong: %+v", ms)
	}
}

func TestPolicyFactoriesConstruct(t *testing.T) {
	cfg := core.DefaultConfig()
	for _, f := range []PolicyFactory{
		FGPolicy(cfg),
		DVSPolicy(cfg),
		PIHybPolicy(cfg, true),
		PIHybPolicy(cfg, false),
		HybPolicy(cfg, true),
		HybPolicy(cfg, false),
	} {
		p, err := f.New()
		if err != nil {
			t.Errorf("%s: %v", f.Name, err)
			continue
		}
		if p == nil {
			t.Errorf("%s: nil policy", f.Name)
		}
	}
}

func TestCrossoverGates(t *testing.T) {
	if crossoverGate(true) != CrossoverGateStall {
		t.Error("stall crossover wrong")
	}
	if crossoverGate(false) != CrossoverGateIdeal {
		t.Error("ideal crossover wrong")
	}
	// Duty 3 (as in the paper; our Figure 3a sweep agrees); duty 20 for
	// the ideal variant as in the paper.
	if math.Abs(1/CrossoverGateStall-3) > 1e-12 {
		t.Errorf("stall crossover duty = %v, want 3", 1/CrossoverGateStall)
	}
	if math.Abs(1/CrossoverGateIdeal-20) > 1e-12 {
		t.Errorf("ideal crossover duty = %v, want 20", 1/CrossoverGateIdeal)
	}
}

func TestSlowdownsAndViolations(t *testing.T) {
	ms := []Measurement{
		{Slowdown: 1.1},
		{Slowdown: 1.2, Result: core.Result{EmergencyTime: 0.001}},
	}
	s := Slowdowns(ms)
	if len(s) != 2 || s[0] != 1.1 || s[1] != 1.2 {
		t.Errorf("Slowdowns = %v", s)
	}
	if !AnyViolation(ms) {
		t.Error("violation not detected")
	}
	if AnyViolation(ms[:1]) {
		t.Error("false violation")
	}
}

func TestArgMin(t *testing.T) {
	if i := ArgMin([]float64{3, 1, 2}); i != 1 {
		t.Errorf("ArgMin = %d, want 1", i)
	}
	if i := ArgMin([]float64{5}); i != 0 {
		t.Errorf("ArgMin single = %d", i)
	}
}

func TestFig4ResultHelpers(t *testing.T) {
	f := Fig4Result{
		Policies: map[string][]float64{
			"DVS": {1.2, 1.2},
			"Hyb": {1.15, 1.15},
		},
	}
	if m := f.Mean("DVS"); math.Abs(m-1.2) > 1e-12 {
		t.Errorf("Mean = %v", m)
	}
	// Overhead reduction: (0.2 - 0.15)/0.2 = 25%.
	if or := f.OverheadReduction("Hyb"); math.Abs(or-0.25) > 1e-12 {
		t.Errorf("OverheadReduction = %v, want 0.25", or)
	}
	// Degenerate: no overhead at all.
	f.Policies["DVS"] = []float64{1.0}
	f.Policies["Hyb"] = []float64{1.0}
	if or := f.OverheadReduction("Hyb"); or != 0 {
		t.Errorf("OverheadReduction with no overhead = %v", or)
	}
	// A single benchmark gets no paired t-test, so String prints no
	// significance line rather than the zero result's "p=0".
	one := Fig4Result{Stall: true, Benchmarks: []string{"gzip"}, Policies: map[string][]float64{}}
	for _, p := range Fig4PolicyOrder {
		one.Policies[p] = []float64{1.1}
	}
	if s := one.String(); strings.Contains(s, "vs DVS") || strings.Contains(s, "significant") {
		t.Errorf("single-benchmark Fig4 claims significance:\n%s", s)
	}
	one.VsDVS = map[string]stats.PairedTTestResult{"Hyb": {}}
	if s := one.String(); !strings.Contains(s, "\nHyb vs DVS") || strings.Contains(s, "PI-Hyb vs DVS") {
		t.Errorf("String must print exactly the tested policies' lines:\n%s", s)
	}
}

func TestFig3aBestDuty(t *testing.T) {
	f := Fig3aResult{Rows: []Fig3aRow{
		{DutyCycle: 20, MeanSlowdown: 1.10},
		{DutyCycle: 5, MeanSlowdown: 1.05},
		{DutyCycle: 3, MeanSlowdown: 1.06, Violations: true}, // excluded
	}}
	if d := f.BestDuty(); d != 5 {
		t.Errorf("BestDuty = %v, want 5 (violating rows excluded)", d)
	}
}

func TestVoltageFloorHelper(t *testing.T) {
	v := VoltageFloorResult{ViolationFree: map[float64]bool{
		0.95: false, 0.90: false, 0.85: true, 0.80: true,
	}}
	if f := v.Floor(); f != 0.85 {
		t.Errorf("Floor = %v, want 0.85", f)
	}
}

func TestStepSizeSpread(t *testing.T) {
	s := StepSizeResult{MeanSlowdown: map[int]float64{2: 1.20, 5: 1.21, 10: 1.195}}
	if sp := s.MaxSpread(); math.Abs(sp-0.015) > 1e-12 {
		t.Errorf("MaxSpread = %v, want 0.015", sp)
	}
}

// TestMiniFig4Smoke exercises the full Fig4 pipeline end to end at tiny
// scale on one benchmark (values are not meaningful at this scale; the
// plumbing is what is under test).
func TestMiniFig4Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r, err := NewRunner(tinyOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fig4(context.Background(), r, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range Fig4PolicyOrder {
		if len(res.Policies[p]) != 1 {
			t.Errorf("policy %s has %d results", p, len(res.Policies[p]))
		}
	}
	if res.String() == "" {
		t.Error("empty rendering")
	}
	if _, ok := res.VsDVS["Hyb"]; !ok {
		// With one benchmark the t-test cannot run; it should error out
		// upstream rather than be silently absent.
		t.Log("t-test absent with single benchmark (expected error path)")
	}
}

func TestFormatters(t *testing.T) {
	rows := CharacteriseRows{{Benchmark: "gzip", IPC: 2.2, AvgPower: 30, MaxTemp: 90, HottestBlock: "IntReg", FracAboveTrigger: 0.9, Violates: true}}
	if out := rows.String(); out == "" || !contains(out, "gzip") {
		t.Errorf("characterise format: %q", out)
	}
	f3b := Fig3bResult{Rows: []Fig3bRow{{DutyCycle: 3, MeanSlowdown: 1.2, Violations: true}}, DVSSlowdown: 1.1}
	if out := f3b.String(); !contains(out, "VIOLATED") {
		t.Errorf("fig3b format: %q", out)
	}
	ss := StepSizeResult{MeanSlowdown: map[int]float64{2: 1.1}, Violations: map[int]bool{}}
	if out := ss.String(); !contains(out, "2 steps") {
		t.Errorf("stepsize format: %q", out)
	}
	vf := VoltageFloorResult{ViolationFree: map[float64]bool{0.85: true}, MeanSlowdown: map[float64]float64{0.85: 1.2}}
	if out := vf.String(); !contains(out, "85%") {
		t.Errorf("vfloor format: %q", out)
	}
	ci := CrossoverInvarianceResult{BestDutyPerVMin: map[float64]float64{0.85: 3}, BestDutyHyb: 3}
	if out := ci.String(); !contains(out, "best duty") {
		t.Errorf("crossover format: %q", out)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
