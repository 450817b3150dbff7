package obs

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeHooks installs a deterministic clock (each read advances by tick
// nanoseconds), returning the profiler for chaining.
func fakeHooks(p *StageProfiler, tick int64) *StageProfiler {
	var now int64
	p.SetHooks(func() int64 { now += tick; return now })
	return p
}

func TestStageProfilerAttribution(t *testing.T) {
	// tick=10: every clock read advances 10 ns, so a Begin..End window
	// spans exactly 10 ns.
	p := fakeHooks(NewStageProfiler(), 10)
	for _, s := range []Stage{StageCPURun, StagePowerCompute, StageThermalStep, StageCPURun} {
		p.Begin(s)
		p.End(s)
	}

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
	for name, want := range map[string]uint64{
		"cpu.run":       2,
		"power.compute": 1,
		"thermal.step":  1,
	} {
		r := byName[name]
		if r.Invocations != want || r.Nanos != 10*int64(want) {
			t.Errorf("%s = %d windows, %d ns; want %d windows of 10 ns",
				name, r.Invocations, r.Nanos, want)
		}
	}
	if doc.AttributedNS != 40 {
		t.Errorf("attributed ns = %d, want 40", doc.AttributedNS)
	}
	if doc.Steps != 1 {
		t.Errorf("steps = %d, want 1 (one thermal.step window)", doc.Steps)
	}
	// Fractions are shares of attributed time and must sum to 1.
	var sum float64
	for _, r := range doc.Stages {
		sum += r.Frac
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("fractions sum to %v, want 1", sum)
	}
	// Stage order in the document is the fixed enum order.
	if doc.Stages[0].Name != "cpu.run" || doc.Stages[len(doc.Stages)-1].Name != "trace.emit" {
		t.Errorf("stage order drifted: first %q last %q", doc.Stages[0].Name, doc.Stages[len(doc.Stages)-1].Name)
	}
}

func TestStageProfilerPublish(t *testing.T) {
	p := fakeHooks(NewStageProfiler(), 10)
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
	p := fakeHooks(NewStageProfiler(), 10)
	p.Begin(StageCPURun)
	p.End(StageCPURun) // 10 ns cpu
	p.Begin(StagePowerCompute)
	p.End(StagePowerCompute) // 10 ns power
	p.Begin(StageSensorSample)
	p.End(StageSensorSample) // 10 ns policy
	p.Begin(StagePolicyDecide)
	p.End(StagePolicyDecide) // 10 ns policy
	doc := p.Profile("", "", "")
	if got := doc.GroupFrac(StageGroupCPU); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("cpu group frac = %v, want 0.25", got)
	}
	if got := doc.GroupFrac(StageGroupPolicy); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("policy group frac = %v, want 0.5", got)
	}
	if got := doc.GroupFrac(StageGroupThermal); got != 0 {
		t.Errorf("thermal group frac = %v, want 0", got)
	}
}

func TestStageProfileFileRoundTrip(t *testing.T) {
	p := fakeHooks(NewStageProfiler(), 5)
	p.Begin(StageThermalStep)
	p.End(StageThermalStep)
	doc := p.Profile("experiments", "gzip", "pi")
	path := filepath.Join(t.TempDir(), "stageprofile.json")
	if err := doc.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadStageProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmark != "gzip" || got.Steps != 1 || got.AttributedNS != doc.AttributedNS {
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
	for _, schema := range []int{1, 99} {
		if err := (StageProfile{Kind: KindStageProfile, Schema: schema}).Validate(); err == nil {
			t.Errorf("schema %d accepted", schema)
		}
	}
	if _, err := LoadStageProfile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestStageNamesAndGroups(t *testing.T) {
	names := stageNames[:]
	want := []string{
		"cpu.run", "power.compute", "thermal.step", "sensor.sample", "policy.decide",
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
	if StageCPURun.Group() != StageGroupCPU || StageTraceEmit.Group() != StageGroupTrace {
		t.Errorf("group mapping drifted: cpu.run=%q trace.emit=%q", StageCPURun.Group(), StageTraceEmit.Group())
	}
}
