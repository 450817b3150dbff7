// Stage profiling: per-stage wall-time / invocation / allocation
// attribution through the coupled simulation loop. A StageProfiler is
// threaded through core.Simulator.RunContext and cpu.Core.RunGated the
// same way the Tracer is — hoisted into a local, every call site behind
// one `if sp != nil` branch (enforced by dtmlint's tracegate analyzer) —
// so the profiler-off loop keeps its AllocsPerRun==0 contract and stays
// within ~1% of baseline.
//
// Profiler-on cost is bounded by step sampling: only every Nth thermal
// step is timed (StepTick decides), and on a sampled step the cpu
// pipeline stages are attributed with chained monotonic timestamps (one
// clock read per stage boundary, no per-stage pairs). Allocation deltas
// are read from runtime/metrics at window granularity — per core-loop
// stage window, plus one combined delta across the cpu pipeline stages,
// where per-cycle reads would dwarf the work being measured. While a
// sampled step runs, the goroutine carries a runtime/pprof label
// (dtm_stage=<group>), so an external CPU profile taken alongside can be
// cut along the same seams.
//
// The attribution is exported three ways: Publish folds
// sim.stage.<name>_ns/_frac gauges into a metrics Registry (and thus
// /metrics and /metrics.prom), Profile freezes a deterministic
// "stageprofile" JSON document (rendered by dtmreport's "where the time
// goes" section), and GroupFrac rolls stages up to the coarse
// cpu/power/thermal/policy/trace split recorded into BENCH snapshots.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// Stage identifies one attributed segment of the coupled loop.
type Stage uint8

// The named stages, in fixed document order. The cpu.* stages, bpred and
// cache are timed per cycle inside cpu.Core's pipeline loop; the rest are
// step-level windows in core.Simulator.RunContext.
const (
	StageCPUCommit Stage = iota
	StageCPUIssueInt
	StageCPUIssueFP
	StageCPUIssueMem
	StageCPUDispatch
	StageCPUFetch
	StageBPred
	StageCache
	StagePowerCompute
	StageThermalStep
	StageSensorSample
	StagePolicyDecide
	StageDVFSActuate
	StageTraceEmit
	numStages
)

var stageNames = [numStages]string{
	StageCPUCommit:    "cpu.commit",
	StageCPUIssueInt:  "cpu.issue_int",
	StageCPUIssueFP:   "cpu.issue_fp",
	StageCPUIssueMem:  "cpu.issue_mem",
	StageCPUDispatch:  "cpu.dispatch",
	StageCPUFetch:     "cpu.fetch",
	StageBPred:        "bpred",
	StageCache:        "cache",
	StagePowerCompute: "power.compute",
	StageThermalStep:  "thermal.step",
	StageSensorSample: "sensor.sample",
	StagePolicyDecide: "policy.decide",
	StageDVFSActuate:  "dvfs.actuate",
	StageTraceEmit:    "trace.emit",
}

// Coarse stage groups for BENCH snapshots and pprof labels.
const (
	StageGroupCPU     = "cpu"
	StageGroupPower   = "power"
	StageGroupThermal = "thermal"
	StageGroupPolicy  = "policy"
	StageGroupTrace   = "trace"
)

var stageGroups = [numStages]string{
	StageCPUCommit:    StageGroupCPU,
	StageCPUIssueInt:  StageGroupCPU,
	StageCPUIssueFP:   StageGroupCPU,
	StageCPUIssueMem:  StageGroupCPU,
	StageCPUDispatch:  StageGroupCPU,
	StageCPUFetch:     StageGroupCPU,
	StageBPred:        StageGroupCPU,
	StageCache:        StageGroupCPU,
	StagePowerCompute: StageGroupPower,
	StageThermalStep:  StageGroupThermal,
	StageSensorSample: StageGroupPolicy,
	StagePolicyDecide: StageGroupPolicy,
	StageDVFSActuate:  StageGroupPolicy,
	StageTraceEmit:    StageGroupTrace,
}

// String returns the stage's document name (e.g. "cpu.issue_int").
func (s Stage) String() string {
	if s < numStages {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// Group returns the stage's coarse group ("cpu", "power", ...).
func (s Stage) Group() string {
	if s < numStages {
		return stageGroups[s]
	}
	return ""
}

// StageGroups returns the coarse group names in document order.
func StageGroups() []string {
	return []string{StageGroupCPU, StageGroupPower, StageGroupThermal, StageGroupPolicy, StageGroupTrace}
}

// MetricStagePrefix prefixes the per-stage registry gauges:
// sim.stage.<name>_ns and sim.stage.<name>_frac.
const MetricStagePrefix = "sim.stage."

// StageMetricNS returns the registry gauge name carrying a stage's
// attributed nanoseconds.
func StageMetricNS(name string) string { return MetricStagePrefix + name + "_ns" }

// StageMetricFrac returns the registry gauge name carrying a stage's
// share of attributed loop time.
func StageMetricFrac(name string) string { return MetricStagePrefix + name + "_frac" }

// DefaultStageSampleEvery is the default step-sampling period: one
// thermal step in 8 is timed, bounding profiler-on overhead while a run
// of any length still accumulates thousands of sampled steps.
const DefaultStageSampleEvery = 8

// StageProfiler accumulates per-stage attribution for ONE simulation
// run. It is not safe for concurrent use; concurrent runs each get their
// own profiler (they may Publish into a shared Registry afterwards).
type StageProfiler struct {
	sampleEvery uint64
	steps       uint64 // thermal steps seen (StepTick calls)
	sampled     uint64 // thermal steps attributed
	active      bool   // current step is sampled

	mark      int64  // monotonic ns at the last Mark/Lap
	allocMark uint64 // cumulative heap allocs at the last Begin/End

	counts   [numStages]uint64
	nanos    [numStages]int64
	allocs   [numStages]uint64
	cpuAlloc uint64 // combined delta across the cpu pipeline stages

	now        func() int64  // monotonic nanoseconds
	readAllocs func() uint64 // cumulative heap allocation count

	labels   bool
	curGroup string
	baseCtx  context.Context
	groupCtx map[string]context.Context

	allocSample [1]metrics.Sample
}

// NewStageProfiler returns a profiler sampling one thermal step in
// sampleEvery (<= 0 selects DefaultStageSampleEvery). The clock is the
// process monotonic clock and allocation counts come from
// runtime/metrics; tests needing byte-exact documents inject
// deterministic sources via SetHooks.
func NewStageProfiler(sampleEvery int) *StageProfiler {
	if sampleEvery <= 0 {
		sampleEvery = DefaultStageSampleEvery
	}
	p := &StageProfiler{
		sampleEvery: uint64(sampleEvery),
		labels:      true,
		baseCtx:     context.Background(),
		groupCtx:    make(map[string]context.Context, len(StageGroups())),
	}
	base := time.Now()
	p.now = func() int64 { return int64(time.Since(base)) }
	p.allocSample[0].Name = "/gc/heap/allocs:objects"
	p.readAllocs = func() uint64 {
		metrics.Read(p.allocSample[:])
		if p.allocSample[0].Value.Kind() == metrics.KindUint64 {
			return p.allocSample[0].Value.Uint64()
		}
		return 0
	}
	for _, g := range StageGroups() {
		p.groupCtx[g] = pprof.WithLabels(p.baseCtx, pprof.Labels("dtm_stage", g))
	}
	return p
}

// SetHooks replaces the monotonic-clock and allocation-count sources.
// It exists so tests can pin stageprofile.json byte-exactly (a stepping
// fake clock, a constant allocation counter); production callers never
// need it. Disables pprof labels, whose only effect is on the real
// runtime.
func (p *StageProfiler) SetHooks(now func() int64, readAllocs func() uint64) {
	p.now = now
	p.readAllocs = readAllocs
	p.labels = false
}

// SampleEvery returns the step-sampling period.
func (p *StageProfiler) SampleEvery() int { return int(p.sampleEvery) }

// StepTick advances the step counter and reports whether the step now
// beginning is sampled. Call exactly once per thermal step, before any
// Begin/Mark for that step.
func (p *StageProfiler) StepTick() bool {
	p.active = p.steps%p.sampleEvery == 0
	p.steps++
	if p.active {
		p.sampled++
	} else if p.curGroup != "" {
		// Leaving a sampled step: drop the stage label so unsampled
		// execution is unlabeled in any concurrent CPU profile.
		pprof.SetGoroutineLabels(p.baseCtx)
		p.curGroup = ""
	}
	return p.active
}

// Mark records the current time as the start of the next Lap interval.
// Cheap enough for the per-cycle pipeline loop; does not touch the
// allocation counter.
func (p *StageProfiler) Mark() {
	if !p.active {
		return
	}
	p.mark = p.now()
}

// Lap attributes the time since the last Mark/Lap to stage s and starts
// the next interval — chained timestamps, one clock read per boundary.
func (p *StageProfiler) Lap(s Stage) {
	if !p.active {
		return
	}
	t := p.now()
	p.nanos[s] += t - p.mark
	p.counts[s]++
	p.mark = t
}

// LapN is Lap with extrapolation: the interval since the last Mark/Lap is
// attributed n times over. The batched cpu kernels lap one fully-staged
// cycle per mini-batch and let it stand for the whole batch (see
// cpu.Core.RunGatedProfiled), so a stage's nanos estimate what walking
// every cycle would have attributed while the profiler pays ~2 clock
// reads per batch instead of 8 per cycle. Invocations count lapped
// (sampled) cycles, not extrapolated ones.
func (p *StageProfiler) LapN(s Stage, n uint64) {
	if !p.active {
		return
	}
	t := p.now()
	p.nanos[s] += (t - p.mark) * int64(n)
	p.counts[s]++
	p.mark = t
}

// Begin opens a step-level window for stage s: time mark, allocation
// mark, and the pprof label for s's group.
func (p *StageProfiler) Begin(s Stage) {
	if !p.active {
		return
	}
	if p.labels {
		if g := stageGroups[s]; g != p.curGroup {
			p.curGroup = g
			pprof.SetGoroutineLabels(p.groupCtx[g])
		}
	}
	p.mark = p.now()
	p.allocMark = p.readAllocs()
}

// End closes the window opened by Begin, attributing elapsed time and
// the allocation delta to stage s.
func (p *StageProfiler) End(s Stage) {
	if !p.active {
		return
	}
	t := p.now()
	p.nanos[s] += t - p.mark
	p.counts[s]++
	p.mark = t
	a := p.readAllocs()
	p.allocs[s] += a - p.allocMark
	p.allocMark = a
}

// EndCPU closes the cpu pipeline window opened by Begin: the allocation
// delta is attributed jointly to the cpu stages (per-cycle allocation
// reads would dwarf the pipeline work, so the split is not affordable),
// and any residual time since the last inner Lap — loop exit overhead —
// is dropped rather than misattributed.
func (p *StageProfiler) EndCPU() {
	if !p.active {
		return
	}
	p.mark = p.now()
	a := p.readAllocs()
	p.cpuAlloc += a - p.allocMark
	p.allocMark = a
}

// Steps returns the thermal steps seen and the subset that was sampled.
func (p *StageProfiler) Steps() (total, sampled uint64) { return p.steps, p.sampled }

// KindStageProfile is the "kind" discriminator of stage profile
// documents.
const KindStageProfile = "stageprofile"

// StageProfileSchemaVersion identifies the stageprofile.json schema.
const StageProfileSchemaVersion = 1

// StageRecord is one stage's attribution in a StageProfile document.
type StageRecord struct {
	Name        string  `json:"name"`
	Group       string  `json:"group"`
	Invocations uint64  `json:"invocations"`
	Nanos       int64   `json:"ns"`
	Frac        float64 `json:"frac"` // share of attributed loop time
	Allocs      uint64  `json:"allocs"`
}

// StageProfile is the deterministic stage-attribution document
// (stageprofile.json). Stages appear in fixed enum order whatever their
// values, so two profiles of the same build diff cleanly.
type StageProfile struct {
	Kind   string `json:"kind"` // always "stageprofile"
	Schema int    `json:"schema"`

	Tool      string `json:"tool,omitempty"`
	Benchmark string `json:"benchmark,omitempty"`
	Policy    string `json:"policy,omitempty"`

	SampleEvery  int    `json:"sample_every"`
	StepsTotal   uint64 `json:"steps_total"`
	StepsSampled uint64 `json:"steps_sampled"`

	// AttributedNS is the sum of per-stage time; Frac values are shares
	// of it, so they sum to 1 by construction (0 stages excepted).
	AttributedNS int64 `json:"attributed_ns"`

	// CPUPipelineAllocs is the combined allocation delta across the cpu
	// pipeline stages (see StageProfiler.EndCPU).
	CPUPipelineAllocs uint64 `json:"cpu_pipeline_allocs"`

	Stages []StageRecord `json:"stages"`
}

// Profile freezes the accumulated attribution into a document.
func (p *StageProfiler) Profile(tool, benchmark, policy string) StageProfile {
	doc := StageProfile{
		Kind:              KindStageProfile,
		Schema:            StageProfileSchemaVersion,
		Tool:              tool,
		Benchmark:         benchmark,
		Policy:            policy,
		SampleEvery:       int(p.sampleEvery),
		StepsTotal:        p.steps,
		StepsSampled:      p.sampled,
		CPUPipelineAllocs: p.cpuAlloc,
		Stages:            make([]StageRecord, numStages),
	}
	var total int64
	for s := Stage(0); s < numStages; s++ {
		total += p.nanos[s]
	}
	doc.AttributedNS = total
	for s := Stage(0); s < numStages; s++ {
		r := StageRecord{
			Name:        stageNames[s],
			Group:       stageGroups[s],
			Invocations: p.counts[s],
			Nanos:       p.nanos[s],
			Allocs:      p.allocs[s],
		}
		if total > 0 {
			r.Frac = float64(p.nanos[s]) / float64(total)
		}
		doc.Stages[s] = r
	}
	return doc
}

// Publish folds the attribution into reg as sim.stage.<name>_ns and
// sim.stage.<name>_frac gauges (last run wins, like any gauge).
func (p *StageProfiler) Publish(reg *Registry) {
	doc := p.Profile("", "", "")
	for _, r := range doc.Stages {
		reg.Gauge(StageMetricNS(r.Name)).Set(float64(r.Nanos))
		reg.Gauge(StageMetricFrac(r.Name)).Set(r.Frac)
	}
}

// GroupFrac returns the summed share of attributed time for one coarse
// group ("cpu", "power", "thermal", "policy", "trace").
func (s StageProfile) GroupFrac(group string) float64 {
	var f float64
	for _, r := range s.Stages {
		if r.Group == group {
			f += r.Frac
		}
	}
	return f
}

// Validate checks the discriminator and schema version.
func (s StageProfile) Validate() error {
	if s.Kind != KindStageProfile {
		return fmt.Errorf("obs: stage profile kind %q, want %q", s.Kind, KindStageProfile)
	}
	if s.Schema > StageProfileSchemaVersion || s.Schema < 1 {
		return fmt.Errorf("obs: stage profile schema %d not supported (have %d)", s.Schema, StageProfileSchemaVersion)
	}
	return nil
}

// WriteFile writes the profile as indented JSON.
func (s StageProfile) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: stage profile: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadStageProfile reads and validates a stage profile file.
func LoadStageProfile(path string) (StageProfile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return StageProfile{}, err
	}
	var s StageProfile
	if err := json.Unmarshal(data, &s); err != nil {
		return StageProfile{}, fmt.Errorf("obs: stage profile %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return StageProfile{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
