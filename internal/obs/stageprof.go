// Stage profiling: per-stage wall-time / invocation attribution through
// the coupled simulation loop. A StageProfiler is threaded through
// core.Simulator's step the same way the Tracer is — hoisted into a
// local, every call site behind one `if sp != nil` branch (the methods
// are not nil-safe, so an unguarded call panics in every profiler-off
// test) — so the profiler-off loop keeps its AllocsPerRun==0 contract and
// stays within ~1% of baseline.
//
// Every thermal step is timed: each loop stage is one Begin/End window
// (two monotonic clock reads), the cpu model included as the single
// cpu.run window around its batch. Windows are disjoint, so the
// attributed total never exceeds the run's wall time. The cpu model is
// not split further here; a -cpuprofile does that from real samples.
// While a window is open the goroutine carries a runtime/pprof label
// (dtm_stage=<group>), so such a CPU profile can be cut along the same
// seams; End drops the label again.
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
	"runtime/pprof"
	"time"
)

// Stage identifies one attributed segment of the coupled loop.
type Stage uint8

// The named stages, in fixed document order: one step-level window each
// in core.Simulator's step.
const (
	StageCPURun Stage = iota
	StagePowerCompute
	StageThermalStep
	StageSensorSample
	StagePolicyDecide
	StageDVFSActuate
	StageTraceEmit
	numStages
)

var stageNames = [numStages]string{
	StageCPURun:       "cpu.run",
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
	StageCPURun:       StageGroupCPU,
	StagePowerCompute: StageGroupPower,
	StageThermalStep:  StageGroupThermal,
	StageSensorSample: StageGroupPolicy,
	StagePolicyDecide: StageGroupPolicy,
	StageDVFSActuate:  StageGroupPolicy,
	StageTraceEmit:    StageGroupTrace,
}

// String returns the stage's document name (e.g. "thermal.step").
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

// StageProfiler accumulates per-stage attribution for ONE simulation
// run. It is not safe for concurrent use; concurrent runs each get their
// own profiler (they may Publish into a shared Registry afterwards).
type StageProfiler struct {
	mark int64 // monotonic ns at the last Begin

	counts [numStages]uint64
	nanos  [numStages]int64

	now func() int64 // monotonic nanoseconds

	labels   bool
	baseCtx  context.Context
	stageCtx [numStages]context.Context // baseCtx labelled with the stage's group
}

// NewStageProfiler returns a profiler timing every window. The clock is
// the process monotonic clock; tests needing byte-exact documents inject
// a deterministic one via SetHooks.
func NewStageProfiler() *StageProfiler {
	p := &StageProfiler{labels: true, baseCtx: context.Background()}
	base := time.Now()
	p.now = func() int64 { return int64(time.Since(base)) }
	for s, g := range stageGroups {
		p.stageCtx[s] = pprof.WithLabels(p.baseCtx, pprof.Labels("dtm_stage", g))
	}
	return p
}

// SetHooks replaces the monotonic-clock source. It exists so tests can
// pin stageprofile.json byte-exactly with a stepping fake clock;
// production callers never need it. Disables pprof labels, whose only
// effect is on the real runtime.
func (p *StageProfiler) SetHooks(now func() int64) {
	p.now = now
	p.labels = false
}

// Begin opens the window for stage s: time mark and the pprof label for
// s's group.
func (p *StageProfiler) Begin(s Stage) {
	if p.labels {
		pprof.SetGoroutineLabels(p.stageCtx[s])
	}
	p.mark = p.now()
}

// End closes the window opened by Begin, attributing elapsed time to
// stage s, and restores the unlabelled context.
func (p *StageProfiler) End(s Stage) {
	p.nanos[s] += p.now() - p.mark
	p.counts[s]++
	if p.labels {
		pprof.SetGoroutineLabels(p.baseCtx)
	}
}

// KindStageProfile is the "kind" discriminator of stage profile
// documents.
const KindStageProfile = "stageprofile"

// StageProfileSchemaVersion identifies the stageprofile.json schema.
const StageProfileSchemaVersion = 3

// StageRecord is one stage's attribution in a StageProfile document.
type StageRecord struct {
	Name        string  `json:"name"`
	Group       string  `json:"group"`
	Invocations uint64  `json:"invocations"`
	Nanos       int64   `json:"ns"`
	Frac        float64 `json:"frac"` // share of attributed loop time
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

	// Steps counts the thermal steps timed: the loop closes exactly one
	// thermal.step window per step.
	Steps uint64 `json:"steps"`

	// AttributedNS is the sum of per-stage time; Frac values are shares
	// of it, so they sum to 1 by construction (0 stages excepted).
	AttributedNS int64 `json:"attributed_ns"`

	Stages []StageRecord `json:"stages"`
}

// Profile freezes the accumulated attribution into a document.
func (p *StageProfiler) Profile(tool, benchmark, policy string) StageProfile {
	doc := StageProfile{
		Kind:      KindStageProfile,
		Schema:    StageProfileSchemaVersion,
		Tool:      tool,
		Benchmark: benchmark,
		Policy:    policy,
		Steps:     p.counts[StageThermalStep],
		Stages:    make([]StageRecord, numStages),
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
	if s.Schema != StageProfileSchemaVersion {
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
