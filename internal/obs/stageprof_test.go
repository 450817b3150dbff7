package obs

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeHooks installs a deterministic clock (each read advances by tick
// nanoseconds) and a deterministic allocation counter (each read advances
// by allocStep), returning the profiler for chaining.
func fakeHooks(p *StageProfiler, tick int64, allocStep uint64) *StageProfiler {
	var now int64
	var allocs uint64
	p.SetHooks(
		func() int64 { now += tick; return now },
		func() uint64 { allocs += allocStep; return allocs },
	)
	return p
}

func TestStageProfilerSampling(t *testing.T) {
	p := NewStageProfiler(4)
	var pattern []bool
	for i := 0; i < 10; i++ {
		pattern = append(pattern, p.StepTick())
	}
	want := []bool{true, false, false, false, true, false, false, false, true, false}
	for i := range want {
		if pattern[i] != want[i] {
			t.Fatalf("StepTick pattern %v, want %v", pattern, want)
		}
	}
	total, sampled := p.Steps()
	if total != 10 || sampled != 3 {
		t.Errorf("Steps() = %d/%d, want 10/3", total, sampled)
	}
	if NewStageProfiler(0).SampleEvery() != DefaultStageSampleEvery {
		t.Errorf("sampleEvery <= 0 should select the default")
	}
}

func TestStageProfilerInactiveIsInert(t *testing.T) {
	p := fakeHooks(NewStageProfiler(2), 10, 1)
	p.StepTick() // sampled
	p.StepTick() // not sampled: everything below must be a no-op
	p.Mark()
	p.Lap(StageCPUCommit)
	p.Begin(StagePowerCompute)
	p.End(StagePowerCompute)
	p.EndCPU()
	doc := p.Profile("", "", "")
	if doc.AttributedNS != 0 {
		t.Errorf("inactive step attributed %d ns, want 0", doc.AttributedNS)
	}
	for _, r := range doc.Stages {
		if r.Invocations != 0 || r.Allocs != 0 {
			t.Errorf("inactive step touched stage %s: %+v", r.Name, r)
		}
	}
}

func TestStageProfilerAttribution(t *testing.T) {
	// tick=10: every clock read advances 10 ns, so a Mark..Lap pair spans
	// exactly 10 ns and chained laps 10 ns each.
	p := fakeHooks(NewStageProfiler(1), 10, 3)
	p.StepTick()
	p.Begin(StageCPUCommit) // cpu window: one alloc read
	p.Mark()
	p.Lap(StageCPUCommit)
	p.Lap(StageCPUIssueInt)
	p.EndCPU() // alloc delta (3) → cpu pipeline
	p.Begin(StagePowerCompute)
	p.End(StagePowerCompute)

	doc := p.Profile("dtmsim", "bzip2", "hyb")
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	if doc.Tool != "dtmsim" || doc.Benchmark != "bzip2" || doc.Policy != "hyb" {
		t.Errorf("metadata = %q/%q/%q", doc.Tool, doc.Benchmark, doc.Policy)
	}
	byName := map[string]StageRecord{}
	for _, r := range doc.Stages {
		byName[r.Name] = r
	}
	for name, wantNS := range map[string]int64{
		"cpu.commit":    10,
		"cpu.issue_int": 10,
		"power.compute": 10,
	} {
		if got := byName[name].Nanos; got != wantNS {
			t.Errorf("%s ns = %d, want %d", name, got, wantNS)
		}
		if byName[name].Invocations != 1 {
			t.Errorf("%s invocations = %d, want 1", name, byName[name].Invocations)
		}
	}
	if doc.AttributedNS != 30 {
		t.Errorf("attributed ns = %d, want 30", doc.AttributedNS)
	}
	// Fractions are shares of attributed time and must sum to 1.
	var sum float64
	for _, r := range doc.Stages {
		sum += r.Frac
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("fractions sum to %v, want 1", sum)
	}
	if doc.CPUPipelineAllocs != 3 {
		t.Errorf("cpu pipeline allocs = %d, want 3", doc.CPUPipelineAllocs)
	}
	if byName["power.compute"].Allocs != 3 {
		t.Errorf("power.compute allocs = %d, want 3", byName["power.compute"].Allocs)
	}
	// Stage order in the document is the fixed enum order.
	if doc.Stages[0].Name != "cpu.commit" || doc.Stages[len(doc.Stages)-1].Name != "trace.emit" {
		t.Errorf("stage order drifted: first %q last %q", doc.Stages[0].Name, doc.Stages[len(doc.Stages)-1].Name)
	}
}

func TestStageProfilerPublish(t *testing.T) {
	p := fakeHooks(NewStageProfiler(1), 10, 0)
	p.StepTick()
	p.Begin(StageThermalStep)
	p.End(StageThermalStep)
	reg := NewRegistry()
	p.Publish(reg)
	if got := reg.Gauge(StageMetricNS("thermal.step")).Value(); got != 10 {
		t.Errorf("sim.stage.thermal.step_ns = %v, want 10", got)
	}
	if got := reg.Gauge(StageMetricFrac("thermal.step")).Value(); got != 1 {
		t.Errorf("sim.stage.thermal.step_frac = %v, want 1", got)
	}
	// Every stage publishes both gauges, and the exposition stays valid.
	snap := reg.Snapshot()
	if want := 2 * int(numStages); len(snap) != want {
		t.Errorf("published %d metrics, want %d", len(snap), want)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "sim_stage_thermal_step_frac 1") {
		t.Errorf("exposition lacks stage gauge:\n%s", b.String())
	}
}

func TestStageProfileGroupFrac(t *testing.T) {
	p := fakeHooks(NewStageProfiler(1), 10, 0)
	p.StepTick()
	p.Begin(StageCPUCommit)
	p.Mark()
	p.Lap(StageCPUCommit) // 10 ns cpu
	p.Lap(StageCache)     // 10 ns cpu (cache rolls up into the cpu group)
	p.EndCPU()
	p.Begin(StageSensorSample)
	p.End(StageSensorSample) // 10 ns policy
	p.Begin(StagePolicyDecide)
	p.End(StagePolicyDecide) // 10 ns policy
	doc := p.Profile("", "", "")
	if got := doc.GroupFrac(StageGroupCPU); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("cpu group frac = %v, want 0.5", got)
	}
	if got := doc.GroupFrac(StageGroupPolicy); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("policy group frac = %v, want 0.5", got)
	}
	if got := doc.GroupFrac(StageGroupThermal); got != 0 {
		t.Errorf("thermal group frac = %v, want 0", got)
	}
}

func TestStageProfileFileRoundTrip(t *testing.T) {
	p := fakeHooks(NewStageProfiler(2), 5, 1)
	p.StepTick()
	p.Begin(StagePowerCompute)
	p.End(StagePowerCompute)
	doc := p.Profile("experiments", "gzip", "pi")
	path := filepath.Join(t.TempDir(), "stageprofile.json")
	if err := doc.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadStageProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmark != "gzip" || got.StepsSampled != 1 || got.AttributedNS != doc.AttributedNS {
		t.Errorf("round trip drifted: %+v", got)
	}
	// Determinism: writing the same profile twice is byte-identical.
	path2 := filepath.Join(t.TempDir(), "again.json")
	if err := doc.WriteFile(path2); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(path)
	b, _ := os.ReadFile(path2)
	if string(a) != string(b) {
		t.Error("two writes of one profile differ")
	}
}

func TestStageProfileValidate(t *testing.T) {
	if err := (StageProfile{Kind: "bench", Schema: 1}).Validate(); err == nil {
		t.Error("wrong kind accepted")
	}
	if err := (StageProfile{Kind: KindStageProfile, Schema: 99}).Validate(); err == nil {
		t.Error("future schema accepted")
	}
	if _, err := LoadStageProfile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestStageNamesAndGroups(t *testing.T) {
	names := stageNames[:]
	want := []string{
		"cpu.commit", "cpu.issue_int", "cpu.issue_fp", "cpu.issue_mem",
		"cpu.dispatch", "cpu.fetch", "bpred", "cache",
		"power.compute", "thermal.step", "sensor.sample", "policy.decide",
		"dvfs.actuate", "trace.emit",
	}
	if len(names) != len(want) {
		t.Fatalf("got %d stages, want %d", len(names), len(want))
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("stage %d = %q, want %q", i, names[i], want[i])
		}
	}
	if StageBPred.Group() != StageGroupCPU || StageTraceEmit.Group() != StageGroupTrace {
		t.Errorf("group mapping drifted: bpred=%q trace.emit=%q", StageBPred.Group(), StageTraceEmit.Group())
	}
}
