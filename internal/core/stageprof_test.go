package core

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hybriddtm/internal/obs"
	"hybriddtm/internal/trace"
)

// stageProfConfig mirrors TestGoldenTrace's deterministic short-run
// setup: thresholds below bzip2's idle temperature so the DTM engages
// from the first sample and the profile contains policy/actuation time.
func stageProfConfig() Config {
	cfg := traceConfig()
	cfg.WarmupCycles = 100_000
	cfg.InitCycles = 100_000
	cfg.SettleInstructions = 100_000
	cfg.Trigger = 70
	cfg.EmergencyThreshold = 76
	return cfg
}

// TestGoldenStageProfile locks the stageprofile.json schema: under an
// injected stepping clock, a short deterministic
// bzip2/Hyb run must produce a byte-identical document. Run with -update
// after an intentional schema change (and bump
// obs.StageProfileSchemaVersion if the change is breaking).
func TestGoldenStageProfile(t *testing.T) {
	cfg := stageProfConfig()
	prof, ok := trace.ByName("bzip2")
	if !ok {
		t.Fatal("bzip2 profile missing")
	}

	sp := obs.NewStageProfiler()
	// Each clock read advances 1 ns, so the document is a pure function
	// of the call sequence.
	var now int64
	sp.SetHooks(func() int64 { now++; return now })
	cfg.Profiler = sp
	ct := &countTracer{t: t, counts: make(map[obs.Kind]int)}
	cfg.Tracer = ct
	sim, err := New(cfg, prof, hybPolicy(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(100_000); err != nil {
		t.Fatal(err)
	}

	doc := sp.Profile("core_test", "bzip2", "hyb")
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}

	// Structural checks first, so a failure explains itself even when the
	// fixture is being regenerated.
	if doc.Steps == 0 || doc.Steps != sim.Steps() {
		t.Fatalf("profile counts %d steps, run took %d", doc.Steps, sim.Steps())
	}
	if doc.AttributedNS <= 0 {
		t.Fatal("no time attributed")
	}
	byName := make(map[string]obs.StageRecord, len(doc.Stages))
	var fracSum float64
	for _, r := range doc.Stages {
		byName[r.Name] = r
		fracSum += r.Frac
	}
	if math.Abs(fracSum-1) > 1e-9 {
		t.Errorf("stage fractions sum to %v, want ~1", fracSum)
	}
	// Power and thermal windows fire once per step; the cpu window only
	// on steps that execute (not clock-stopped or DVS-stalled).
	for _, name := range []string{"power.compute", "thermal.step"} {
		if got := byName[name].Invocations; got != doc.Steps {
			t.Errorf("%s windows = %d, want one per step (%d)", name, got, doc.Steps)
		}
	}
	if got := byName["cpu.run"].Invocations; got > doc.Steps {
		t.Errorf("cpu.run windows = %d, more than the %d steps", got, doc.Steps)
	}
	for _, name := range []string{"cpu.run",
		"sensor.sample", "policy.decide", "dvfs.actuate", "trace.emit"} {
		if byName[name].Invocations == 0 {
			t.Errorf("stage %s never attributed; widen the run", name)
		}
	}
	// The tracer really saw the run (trace.emit attribution is not vacuous).
	if !ct.ended || ct.counts[obs.KindSensor] == 0 {
		t.Errorf("tracer saw ended=%v, %d sensor events", ct.ended, ct.counts[obs.KindSensor])
	}

	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "stageprofile_bzip2_hyb.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stageprofile drifted from golden fixture (%d vs %d bytes); if the change is intentional rerun with -update and bump obs.StageProfileSchemaVersion for breaking changes",
			len(got), len(want))
	}
}

// TestStageProfilerOverhead asserts the cost of timing every step: the
// windows a profiled run opens must cost less than 10% of a profiler-free
// run's wall time. Differencing a profiled and an unprofiled run cannot
// show this on a shared host, where cache interference from other
// processes moves a whole run by more than the bound. So the cost is
// measured directly: the windows one profiled run opens (its Profile
// counts) times the cost of one Begin/End pair with pprof labels on,
// timed over 10⁵ windows, best of three, against the best of three
// unprofiled runs.
func TestStageProfilerOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock timing")
	}
	run := func(sp *obs.StageProfiler) time.Duration {
		cfg := stageProfConfig()
		cfg.Profiler = sp
		sim, err := New(cfg, gzipProfile(t), hybPolicy(t, cfg))
		if err != nil {
			t.Fatal(err)
		}
		begin := time.Now()
		if _, err := sim.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		return time.Since(begin)
	}
	off := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		off = min(off, run(nil))
	}
	sp := obs.NewStageProfiler()
	run(sp)
	var windows uint64
	for _, r := range sp.Profile("", "", "").Stages {
		windows += r.Invocations
	}

	const pairs = 100_000
	stages := []obs.Stage{obs.StageCPURun, obs.StagePowerCompute, obs.StageThermalStep,
		obs.StageSensorSample, obs.StagePolicyDecide, obs.StageDVFSActuate, obs.StageTraceEmit}
	perWindow := math.Inf(1) // ns
	for i := 0; i < 3; i++ {
		p := obs.NewStageProfiler()
		begin := time.Now()
		for k := 0; k < pairs; k++ {
			s := stages[k%len(stages)]
			p.Begin(s)
			p.End(s)
		}
		perWindow = min(perWindow, float64(time.Since(begin))/pairs)
	}

	cost := float64(windows) * perWindow
	t.Logf("%d windows × %.0f ns = %.3g ms against an unprofiled run of %v", windows, perWindow, cost/1e6, off)
	if frac := cost / float64(off); frac > 0.10 {
		t.Errorf("profiler overhead %.1f%% (%d windows × %.0f ns, unprofiled run %v), want < 10%%",
			frac*100, windows, perWindow, off)
	}
}

// TestStageProfileRealClock smoke-tests the production configuration (real
// monotonic clock, pprof labels) and
// the invariants that the profile fits inside the run it timed and that
// fractions are shares of real attributed time.
func TestStageProfileRealClock(t *testing.T) {
	cfg := stageProfConfig()
	sp := obs.NewStageProfiler()
	cfg.Profiler = sp
	sim, err := New(cfg, gzipProfile(t), hybPolicy(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	if _, err := sim.Run(100_000); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(begin)
	doc := sp.Profile("core_test", "gzip", "hyb")
	if doc.Steps != sim.Steps() {
		t.Errorf("profile counts %d steps, run took %d", doc.Steps, sim.Steps())
	}
	if doc.AttributedNS <= 0 {
		t.Fatalf("real-clock run attributed nothing: %+v", doc)
	}
	var stageNS int64
	var fracSum float64
	for _, r := range doc.Stages {
		if r.Nanos < 0 {
			t.Errorf("stage %s has negative time %d ns (non-monotonic clock?)", r.Name, r.Nanos)
		}
		stageNS += r.Nanos
		fracSum += r.Frac
	}
	if stageNS > wall.Nanoseconds() {
		t.Errorf("stages attribute %d ns, more than the %d ns the run took", stageNS, wall.Nanoseconds())
	}
	if math.Abs(fracSum-1) > 1e-9 {
		t.Errorf("stage fractions sum to %v, want ~1", fracSum)
	}
	// ROADMAP's premise: the cpu pipeline dominates the coupled loop.
	if cpu := doc.GroupFrac(obs.StageGroupCPU); cpu < 0.5 {
		t.Errorf("cpu group frac = %.3f; expected the pipeline to dominate", cpu)
	}
}
