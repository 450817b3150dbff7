// Package core couples the substrates into the paper's full evaluation
// loop (§3): the cycle-level CPU runs in 10 000-cycle thermal steps whose
// average per-block power drives the HotSpot RC model; sensors are sampled
// at 10 kHz and feed the DTM policy; the policy's actuator requests (fetch
// gating, DVS level, clock stop) are applied with their hardware costs —
// in particular the 10 µs DVS switch, either stalling the pipeline
// ("stall") or merely delaying the new setting ("ideal", §4.1).
//
// Simulations start from the per-workload thermal steady state and run a
// cache/predictor warm-up before statistics are tracked, mirroring the
// paper's methodology.
package core

import (
	"context"
	"errors"
	"fmt"

	"hybriddtm/internal/cpu"
	"hybriddtm/internal/dtm"
	"hybriddtm/internal/dvfs"
	"hybriddtm/internal/floorplan"
	"hybriddtm/internal/hotspot"
	"hybriddtm/internal/obs"
	"hybriddtm/internal/power"
	"hybriddtm/internal/sensor"
	"hybriddtm/internal/stats"
	"hybriddtm/internal/trace"
)

// Config assembles a full system. Zero values are not usable; start from
// DefaultConfig.
type Config struct {
	CPU     cpu.Config
	Package hotspot.PackageConfig
	Tech    dvfs.Technology
	Ladder  *dvfs.Ladder // DVS operating points; nil means binary at VMinFrac
	Specs   []power.BlockSpec
	Leakage power.LeakageConfig
	Sensors sensor.Config

	// ThermalStepCycles is the power-averaging interval (§3: 10 000 cycles
	// keeps sampling error below 0.1% with <1% simulation overhead).
	ThermalStepCycles int

	// DVSSwitchTime is the voltage/frequency transition time; DVSStall
	// selects whether the pipeline stalls through it ("stall") or keeps
	// executing at the old setting until it completes ("ideal").
	DVSSwitchTime float64
	DVSStall      bool

	// EmergencyThreshold is the true junction temperature that must never
	// be exceeded (85 °C per the 2001 ITRS, §3). Trigger is the sensor
	// reading at which DTM responds (81.8 °C: 85 minus worst-case sensor
	// error minus response margin).
	EmergencyThreshold float64
	Trigger            float64

	// VMinFrac is the low-voltage setting as a fraction of nominal used
	// when Ladder is nil (0.85: the largest value that eliminates thermal
	// violations with this package, §4.1).
	VMinFrac float64

	// WarmupCycles of full-detail execution before statistics are tracked
	// (the paper uses 300 M; scale down for quick runs).
	WarmupCycles uint64

	// InitCycles of warmed execution measure the activity used to seed the
	// thermal steady state.
	InitCycles uint64

	// MaxWallTime aborts a run that simulates more than this many seconds,
	// guarding against policies that stop the clock and never release it.
	MaxWallTime float64

	// Tracer, when non-nil, receives the run's typed event stream (thermal
	// steps, sensor samples, policy decisions, actuator changes, threshold
	// crossings — see internal/obs). Events start after warm-up, i.e. the
	// settle phase is included and flagged via Event.Measuring. The nil
	// case is the fast path: one branch per thermal step, no allocation
	// (<2% overhead, gated by the root BenchmarkTracer* benches). A Tracer
	// instance belongs to one run; concurrent simulations must not share
	// one (share a metrics Registry via per-run MetricsTracers instead).
	Tracer obs.Tracer

	// Profiler, when non-nil, attributes coupled-loop wall time,
	// invocation counts and allocation deltas to named stages (see
	// obs.StageProfiler). Like Tracer it is hoisted into a local and
	// every call site sits behind one `if sp != nil` branch, so the nil
	// case stays allocation-free and within ~1% of baseline (gated by
	// the root BenchmarkStageProfiler* pair). A StageProfiler belongs to
	// one run; concurrent simulations must not share one.
	Profiler *obs.StageProfiler

	// SettleInstructions are executed with the DTM policy live before
	// statistics are tracked. The paper's measurement windows begin after
	// 300 M warm-up cycles during which DTM already operates, so
	// controllers are wound to their operating point when accounting
	// starts; this reproduces that. Counting the settle phase in
	// instructions (not seconds) makes every policy's measurement window
	// cover exactly the same dynamic instructions, so slowdown differences
	// are purely the policy's doing.
	SettleInstructions uint64
}

// DefaultConfig returns the paper's setup.
func DefaultConfig() Config {
	return Config{
		CPU:     cpu.DefaultConfig(),
		Package: hotspot.DefaultPackage(),
		Tech:    dvfs.Default130nm(),
		Specs:   power.EV6Spec(),
		Leakage: power.DefaultLeakage(),
		Sensors: sensor.DefaultConfig(),

		ThermalStepCycles: 10_000,
		DVSSwitchTime:     10e-6,
		DVSStall:          true,

		EmergencyThreshold: 85,
		Trigger:            81.8,
		VMinFrac:           0.85,

		WarmupCycles:       2_000_000,
		InitCycles:         1_000_000,
		MaxWallTime:        5,
		SettleInstructions: 4_000_000,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	if err := c.Package.Validate(); err != nil {
		return err
	}
	if err := c.Tech.Validate(); err != nil {
		return err
	}
	if err := c.Leakage.Validate(); err != nil {
		return err
	}
	if err := c.Sensors.Validate(); err != nil {
		return err
	}
	if c.ThermalStepCycles <= 0 {
		return fmt.Errorf("core: thermal step %d must be positive", c.ThermalStepCycles)
	}
	if c.DVSSwitchTime < 0 {
		return fmt.Errorf("core: negative DVS switch time %v", c.DVSSwitchTime)
	}
	if !(c.Trigger < c.EmergencyThreshold) {
		return fmt.Errorf("core: trigger %v must be below emergency %v", c.Trigger, c.EmergencyThreshold)
	}
	if c.Ladder == nil && !(c.VMinFrac > 0 && c.VMinFrac < 1) {
		return fmt.Errorf("core: VMinFrac %v outside (0,1)", c.VMinFrac)
	}
	if !(c.MaxWallTime > 0) {
		return fmt.Errorf("core: MaxWallTime %v must be positive", c.MaxWallTime)
	}
	return nil
}

// Result summarizes one simulation run.
type Result struct {
	Benchmark string
	Policy    string

	Instructions uint64
	Cycles       uint64
	WallTime     float64 // seconds of simulated execution (after warmup)

	MaxTemp          float64 // hottest true block temperature seen
	HottestBlock     string
	EmergencyTime    float64 // seconds with any true block temp above the emergency threshold
	TimeAboveTrigger float64 // seconds with the hottest true temp above the trigger

	AvgPower      float64 // W averaged over the run
	EnergyJ       float64
	AvgIPC        float64
	AvgGate       float64 // time-weighted fetch-gating fraction
	TimeAtLowV    float64 // seconds below nominal voltage
	DVSSwitches   int
	ClockStopTime float64 // seconds with the global clock stopped
}

// Violated reports whether the run ever exceeded the emergency threshold.
func (r Result) Violated() bool { return r.EmergencyTime > 0 }

// Simulator is a one-shot coupled simulation: construct with New (or join
// one to a Cohort), call Run once.
type Simulator struct {
	cfg    Config
	fp     *floorplan.Floorplan
	core   *cpu.Core // owned, or the core of the Cohort it follows
	pm     *power.Model
	tm     *hotspot.Model
	bank   *sensor.Bank
	ladder *dvfs.Ladder
	policy dtm.Policy
	prof   trace.Profile

	warm *Warm // the shared start state; nil means Run warms the core itself
	ran  bool
	l    loop
}

// loop is a run's coupled-loop state between thermal steps. It lives on
// the Simulator rather than in RunContext's locals so that a run can
// follow a Cohort's shared core for a while and then go on alone from the
// same step boundary.
type loop struct {
	begun, done, ended bool
	instructions       uint64
	res                Result

	nomF         float64
	stepCycles   uint64
	samplePeriod float64
	stepIdx      uint64

	// Crossing state tracks the hottest *true* temperature against the
	// thresholds so traces pinpoint when and for how long the chip sat
	// above the trigger.
	wasAboveTrigger, wasAboveEmergency bool
	prevGate                           float64
	prevClockStop                      bool

	// Actuator state.
	level          int
	gates          cpu.Gates
	clockStop      bool
	stallRemaining float64 // DVS-stall in progress
	pendingLevel   int     // DVS-ideal scheduled level, -1 when none
	pendingAt      float64

	wall            float64 // simulated seconds since the settle phase began
	nextSample      float64
	measuring       bool
	settleTarget    uint64
	startCommitted  uint64
	startCycles     uint64
	startWall       float64
	committedTarget uint64

	act                             cpu.Activity
	activity, pvec, temps, readings []float64

	maxTemp float64
	hottest int
	energy  float64
}

// idle is Simulator.Idle.
func (l *loop) idle() bool {
	return l.gates == (cpu.Gates{}) && l.level == 0 && !l.clockStop &&
		stats.SameFloat(l.stallRemaining, 0) && l.pendingLevel < 0
}

// New assembles a simulator for one benchmark profile under one policy.
// A nil policy means no DTM.
func New(cfg Config, prof trace.Profile, policy dtm.Policy) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gen, err := trace.NewGenerator(prof)
	if err != nil {
		return nil, err
	}
	c, err := cpu.New(cfg.CPU, gen)
	if err != nil {
		return nil, err
	}
	return assemble(cfg, prof, policy, c, nil)
}

// assemble builds the policy-dependent rest of a simulator around a core:
// the power, thermal and sensor models and the DVS ladder are always fresh.
func assemble(cfg Config, prof trace.Profile, policy dtm.Policy, c *cpu.Core, w *Warm) (*Simulator, error) {
	if policy == nil {
		policy = dtm.None()
	}
	fp := floorplan.EV6()
	pm, err := power.NewModel(fp, cfg.Tech, cfg.Specs, cfg.Leakage)
	if err != nil {
		return nil, err
	}
	tm, err := hotspot.NewModel(fp, cfg.Package)
	if err != nil {
		return nil, err
	}
	bank, err := sensor.NewBank(fp.NumBlocks(), cfg.Sensors)
	if err != nil {
		return nil, err
	}
	ladder, err := cfg.ladder()
	if err != nil {
		return nil, err
	}
	return &Simulator{
		cfg:    cfg,
		fp:     fp,
		core:   c,
		pm:     pm,
		tm:     tm,
		bank:   bank,
		ladder: ladder,
		policy: policy,
		prof:   prof,
		warm:   w,
	}, nil
}

// ladder returns the configured DVS ladder, or the binary one at VMinFrac.
func (c Config) ladder() (*dvfs.Ladder, error) {
	if c.Ladder != nil {
		return c.Ladder, nil
	}
	return dvfs.Binary(c.Tech, c.VMinFrac)
}

// Floorplan returns the floorplan in use.
func (s *Simulator) Floorplan() *floorplan.Floorplan { return s.fp }

// Thermal returns the thermal model (read-only use intended).
func (s *Simulator) Thermal() *hotspot.Model { return s.tm }

// Core returns the CPU model (read-only use intended).
func (s *Simulator) Core() *cpu.Core { return s.core }

// Sensors returns the sensor bank, exposed for failure-injection studies
// (see sensor.Bank.SetStuck).
func (s *Simulator) Sensors() *sensor.Bank { return s.bank }

// Steps returns the thermal steps the run has advanced so far.
func (s *Simulator) Steps() uint64 { return s.l.stepIdx }

// Done reports whether the run's measured window has completed.
func (s *Simulator) Done() bool { return s.l.done }

// Idle reports whether the run's actuators are all at rest: no gating,
// the nominal DVS level, the clock running and no switch stalling or
// pending. Until a run leaves this state its pipeline sees exactly what a
// run without DTM sees, which is what lets a Cohort share one core.
func (s *Simulator) Idle() bool { return s.l.idle() }

// start brings the simulator to the state its run begins from: the warm
// step (unless the simulator was built on a Warm), then the apply step.
func (s *Simulator) start(ctx context.Context) error {
	w := s.warm
	if w == nil {
		var err error
		if w, err = s.warmUp(ctx); err != nil {
			return err
		}
	}
	return s.apply(w)
}

// warmUp is the warm step, mirroring the paper's §3 startup: caches and
// predictor are first warmed in full detail (WarmupCycles), then
// InitCycles of warmed execution measure the workload's activity, and the
// power/temperature fixed point for that activity is solved (leakage
// depends on temperature, so the steady state is solved iteratively). It
// advances the core and uses the thermal model as a solver only; the
// sensor bank is read for its fixed offsets, never sampled.
func (s *Simulator) warmUp(ctx context.Context) (*Warm, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if _, err := s.core.Run(s.cfg.WarmupCycles, 0, nil); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var act cpu.Activity
	if _, err := s.core.Run(s.cfg.InitCycles, 0, &act); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	activity, err := act.BlockActivity(s.fp, nil)
	if err != nil {
		return nil, err
	}
	nom := s.ladder.Nominal()
	n := s.fp.NumBlocks()
	temps := make([]float64, n)
	for i := range temps {
		temps[i] = 60 // starting guess for the fixed point
	}
	var p []float64
	for iter := 0; iter < 12; iter++ {
		if p, err = s.pm.Compute(p, activity, 1, nom.V, nom.F, temps); err != nil {
			return nil, err
		}
		if err := s.tm.SteadyStateInto(temps, p); err != nil {
			return nil, err
		}
	}
	// The hottest expected sensor reading: true temperature plus the
	// sensor's fixed offset.
	reading := temps[0] + s.bank.Offset(0)
	for i := 1; i < n; i++ {
		if r := temps[i] + s.bank.Offset(i); r > reading {
			reading = r
		}
	}
	return &Warm{core: s.core, power: p, reading: reading}, nil
}

// apply is the policy-dependent step: the thermal model starts at the
// warm state's steady state, and for runs with an active DTM policy the
// die is additionally clamped so no block starts above the trigger — a
// chip whose DTM has been running would have been held there, never at
// the unmanaged steady state.
func (s *Simulator) apply(w *Warm) error {
	if err := s.tm.Init(w.power); err != nil {
		return err
	}
	if !dtm.IsNone(s.policy) && w.reading > s.cfg.Trigger {
		// The package (spreader, sink) sits at the workload's unmanaged
		// steady state — it is quasi-static over simulated intervals and a
		// hot application keeps it hot whether or not DTM throttles the
		// core (§3: "over these time scales, the heat sink temperature
		// changes little"). The silicon, however, responds in milliseconds
		// and a chip under DTM would be held at the trigger, so the die
		// nodes start shifted down to the DTM-held level.
		s.tm.ShiftBlocks(s.cfg.Trigger - w.reading)
	}
	return nil
}

// begin sets up the loop state at the first thermal step and opens the
// run's trace. The simulator must have been brought to its start state.
func (s *Simulator) begin(instructions uint64) {
	l := &s.l
	*l = loop{
		begun:          true,
		instructions:   instructions,
		res:            Result{Benchmark: s.prof.Name, Policy: s.policy.Name()},
		nomF:           s.ladder.Nominal().F,
		stepCycles:     uint64(s.cfg.ThermalStepCycles),
		samplePeriod:   s.cfg.Sensors.SamplePeriod(),
		pendingLevel:   -1,
		measuring:      s.cfg.SettleInstructions == 0,
		settleTarget:   s.core.Committed() + s.cfg.SettleInstructions,
		startCommitted: s.core.Committed(),
		startCycles:    s.core.Cycle(),
		maxTemp:        -1e9,
	}
	l.nextSample = l.samplePeriod
	l.committedTarget = l.startCommitted + instructions
	l.temps = s.tm.BlockTemps(nil)
	if tr := s.cfg.Tracer; tr != nil {
		blocks := make([]string, s.fp.NumBlocks())
		for i := range blocks {
			blocks[i] = s.fp.Block(i).Name
		}
		tr.Begin(obs.Meta{
			Benchmark:         s.prof.Name,
			Policy:            s.policy.Name(),
			Blocks:            blocks,
			ThermalStepCycles: s.cfg.ThermalStepCycles,
			SamplePeriod:      l.samplePeriod,
			Trigger:           s.cfg.Trigger,
			Emergency:         s.cfg.EmergencyThreshold,
		})
	}
}

// Close ends the run's trace if it has begun and not yet ended. RunContext
// ends it itself; Close is for a run abandoned while it followed a Cohort.
func (s *Simulator) Close() {
	if !s.l.begun || s.l.ended {
		return
	}
	s.l.ended = true
	if tr := s.cfg.Tracer; tr != nil {
		tr.End()
	}
}

// Run executes until the given number of instructions commit after warmup,
// and returns the run summary.
func (s *Simulator) Run(instructions uint64) (Result, error) {
	return s.RunContext(context.Background(), instructions)
}

// RunContext is Run with cancellation: the context is checked between the
// warmup/init phases and once per thermal step (10 000 cycles of simulated
// execution, i.e. a few microseconds of real time), so concurrent drivers
// can abort a sweep promptly on the first error. A canceled run returns
// ctx.Err() and leaves no partial Result.
//
// A simulator that has followed a Cohort goes on from the step where it
// left it, on the core Fork gave it; instructions must be the cohort's
// budget. One whose window completed inside the cohort returns its Result
// at once.
//
//dtmlint:allocfree
func (s *Simulator) RunContext(ctx context.Context, instructions uint64) (Result, error) {
	if instructions == 0 {
		return Result{}, errors.New("core: zero instruction target")
	}
	if s.ran {
		return Result{}, errors.New("core: Simulator.Run called twice; build a fresh Simulator per run")
	}
	s.ran = true
	if !s.l.begun {
		if err := s.start(ctx); err != nil { //dtmlint:allow allocguard one-time init before the measured loop
			return Result{}, err
		}
		s.begin(instructions) //dtmlint:allow allocguard one-time init before the measured loop
	} else if instructions != s.l.instructions {
		return Result{}, fmt.Errorf("core: run began with a %d-instruction budget, not %d", s.l.instructions, instructions)
	}
	defer s.Close()
	for !s.l.done {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		if err := s.step(nil); err != nil {
			return Result{}, err
		}
	}
	return s.l.res, nil
}

// step advances the run one thermal step. With shared nil the run executes
// its own cpu batch; otherwise it follows a Cohort, whose core has already
// run this step's batch ungated at nominal frequency and left its activity
// in shared, and the run must not touch the core. On the step that
// completes the measured window it fills in the Result and sets done.
//
//dtmlint:allocfree
func (s *Simulator) step(shared *cpu.Activity) error {
	l := &s.l
	op := s.ladder.Point(l.level)
	dt := float64(l.stepCycles) / op.F
	clockFrac := 1.0
	stalled := false
	act := &l.act
	act.Reset()

	// Observability: tr is hoisted so the disabled path is one nil check
	// per emission site. sp follows the same hoisted-guard discipline;
	// spActive caches the per-step sampling decision (StepTick) so
	// unsampled steps pay the nil check alone.
	tr := s.cfg.Tracer
	sp := s.cfg.Profiler
	spActive := false
	if sp != nil {
		spActive = sp.StepTick()
	}
	if sp != nil && spActive {
		sp.Begin(obs.StageCPUCommit) // opens the cpu pipeline window
	}
	switch {
	case l.clockStop:
		// Global clock stopped: no execution, no dynamic power at all.
		clockFrac = 0
		act.Cycles = 0
	case l.stallRemaining > 0:
		// DVS transition with pipeline stalled: clock runs (idle
		// power), nothing executes.
		stalled = true
		if l.stallRemaining < dt {
			dt = l.stallRemaining
		}
		l.stallRemaining -= dt
	case shared != nil:
		act = shared
	case sp != nil && spActive:
		if _, err := s.core.RunGatedProfiled(l.stepCycles, l.gates, act, sp); err != nil {
			return err
		}
	default:
		if _, err := s.core.RunGated(l.stepCycles, l.gates, act); err != nil {
			return err
		}
	}
	if sp != nil && spActive {
		sp.EndCPU()
	}

	var err error
	if sp != nil && spActive {
		sp.Begin(obs.StagePowerCompute)
	}
	l.activity, err = act.BlockActivity(s.fp, l.activity)
	if err != nil {
		return err
	}
	l.pvec, err = s.pm.Compute(l.pvec, l.activity, clockFrac, op.V, op.F, l.temps)
	if err != nil {
		return err
	}
	if sp != nil && spActive {
		sp.End(obs.StagePowerCompute)
		sp.Begin(obs.StageThermalStep)
	}
	if err := s.tm.Step(l.pvec, dt); err != nil {
		return err
	}
	l.temps = s.tm.BlockTemps(l.temps)
	if sp != nil && spActive {
		sp.End(obs.StageThermalStep)
	}
	l.wall += dt
	l.stepIdx++
	wall, stepIdx, measuring := l.wall, l.stepIdx, l.measuring

	var hi int
	var ht float64
	if measuring || tr != nil {
		hi, ht = s.tm.MaxBlockTemp()
	}
	if sp != nil && spActive && tr != nil {
		sp.Begin(obs.StageTraceEmit)
	}
	if tr != nil {
		tr.Emit(&obs.Event{
			Kind: obs.KindStep, Time: wall, Cycle: s.core.Cycle(), Step: stepIdx, Measuring: measuring,
			Dt: dt, Temps: l.temps, Power: l.pvec, MaxTemp: ht, Hottest: hi,
			Level: l.level, GateFrac: l.gates.Fetch, ClockStop: l.clockStop,
			Stalled: stalled, StallRemaining: l.stallRemaining,
		})
		if above := ht > s.cfg.Trigger; above != l.wasAboveTrigger {
			l.wasAboveTrigger = above
			tr.Emit(&obs.Event{Kind: obs.KindCrossing, Time: wall, Cycle: s.core.Cycle(), Step: stepIdx,
				Measuring: measuring, Threshold: "trigger", Above: above, MaxTemp: ht})
		}
		if above := ht > s.cfg.EmergencyThreshold; above != l.wasAboveEmergency {
			l.wasAboveEmergency = above
			tr.Emit(&obs.Event{Kind: obs.KindCrossing, Time: wall, Cycle: s.core.Cycle(), Step: stepIdx,
				Measuring: measuring, Threshold: "emergency", Above: above, MaxTemp: ht})
		}
	}
	if sp != nil && spActive && tr != nil {
		sp.End(obs.StageTraceEmit)
	}

	// Bookkeeping on true temperatures, once the DTM controllers have
	// settled.
	if measuring {
		res := &l.res
		if ht > l.maxTemp {
			l.maxTemp, l.hottest = ht, hi
		}
		if ht > s.cfg.EmergencyThreshold {
			res.EmergencyTime += dt
		}
		if ht > s.cfg.Trigger {
			res.TimeAboveTrigger += dt
		}
		l.energy += power.Total(l.pvec) * dt
		res.AvgGate += l.gates.Fetch * dt
		if l.level > 0 {
			res.TimeAtLowV += dt
		}
		if l.clockStop {
			res.ClockStopTime += dt
		}
	}

	// Apply a pending (ideal-mode) DVS transition. A follower never has
	// one: a pending switch makes it leave its cohort.
	if l.pendingLevel >= 0 && wall >= l.pendingAt {
		if sp != nil && spActive {
			sp.Begin(obs.StageDVFSActuate)
		}
		from := l.level
		l.level = l.pendingLevel
		l.pendingLevel = -1
		if err := s.core.SetFrequencyRatio(s.ladder.Point(l.level).F / l.nomF); err != nil {
			return err
		}
		if tr != nil {
			tr.Emit(&obs.Event{Kind: obs.KindActuation, Time: wall, Cycle: s.core.Cycle(), Step: stepIdx,
				Measuring: measuring, Level: l.level, FromLevel: from, SwitchApplied: true,
				GateFrac: l.gates.Fetch, ClockStop: l.clockStop})
		}
		if sp != nil && spActive {
			sp.End(obs.StageDVFSActuate)
		}
	}

	// Sensor sampling and policy decision.
	for wall >= l.nextSample {
		l.nextSample += l.samplePeriod
		if sp != nil && spActive {
			sp.Begin(obs.StageSensorSample)
		}
		l.readings, err = s.bank.Read(l.readings, l.temps)
		if err != nil {
			return err
		}
		if sp != nil && spActive {
			sp.End(obs.StageSensorSample)
			sp.Begin(obs.StagePolicyDecide)
		}
		var d dtm.Decision
		var maxR float64
		if vp, ok := s.policy.(dtm.VectorPolicy); ok {
			d = vp.SampleVector(l.readings, l.samplePeriod)
			if tr != nil {
				maxR = sensor.Max(l.readings)
			}
		} else {
			maxR = sensor.Max(l.readings)
			d = s.policy.Sample(maxR, l.samplePeriod)
		}
		if sp != nil && spActive {
			sp.End(obs.StagePolicyDecide)
		}
		if sp != nil && spActive && tr != nil {
			sp.Begin(obs.StageTraceEmit)
		}
		if tr != nil {
			cyc := s.core.Cycle()
			tr.Emit(&obs.Event{Kind: obs.KindSensor, Time: wall, Cycle: cyc, Step: stepIdx,
				Measuring: measuring, Readings: l.readings, MaxReading: maxR})
			tr.Emit(&obs.Event{Kind: obs.KindDecision, Time: wall, Cycle: cyc, Step: stepIdx,
				Measuring: measuring, DecGate: d.GateFrac, DecLevel: d.Level, DecClockStop: d.ClockStop})
		}
		if sp != nil && spActive && tr != nil {
			sp.End(obs.StageTraceEmit)
		}
		if sp != nil && spActive {
			// The remainder of the sample body — gate/clock-stop
			// application and DVS switch bookkeeping, including its
			// actuation event — is the dvfs.actuate window.
			sp.Begin(obs.StageDVFSActuate)
		}
		l.gates = cpu.Gates{Fetch: d.GateFrac, Int: d.IntGate, FP: d.FPGate, Mem: d.MemGate}
		l.clockStop = d.ClockStop
		want := d.Level
		if want < 0 {
			want = 0
		}
		if want >= s.ladder.NumPoints() {
			want = s.ladder.NumPoints() - 1
		}
		switched := false
		fromLevel := l.level
		if want != l.level && l.pendingLevel < 0 && stats.SameFloat(l.stallRemaining, 0) {
			l.res.DVSSwitches++
			switched = true
			if s.cfg.DVSStall {
				// Pipeline stalls through the transition; the new
				// setting is live afterwards. A follower leaves the
				// shared core as it is: Fork sets the ratio on the core
				// the run takes.
				l.stallRemaining = s.cfg.DVSSwitchTime
				l.level = want
				if shared == nil {
					if err := s.core.SetFrequencyRatio(s.ladder.Point(l.level).F / l.nomF); err != nil {
						return err
					}
				}
			} else {
				l.pendingLevel = want
				l.pendingAt = wall + s.cfg.DVSSwitchTime
			}
		}
		if tr != nil && (switched || !stats.SameFloat(l.gates.Fetch, l.prevGate) || l.clockStop != l.prevClockStop) {
			l.prevGate, l.prevClockStop = l.gates.Fetch, l.clockStop
			tr.Emit(&obs.Event{Kind: obs.KindActuation, Time: wall, Cycle: s.core.Cycle(), Step: stepIdx,
				Measuring: measuring, GateFrac: l.gates.Fetch, ClockStop: l.clockStop,
				Level: want, FromLevel: fromLevel,
				SwitchStarted: switched, SwitchStalls: switched && s.cfg.DVSStall,
				StallRemaining: l.stallRemaining})
		}
		if sp != nil && spActive {
			sp.End(obs.StageDVFSActuate)
		}
	}

	if !l.measuring && s.core.Committed() >= l.settleTarget {
		l.measuring = true
		l.startCommitted = s.core.Committed()
		l.startCycles = s.core.Cycle()
		l.startWall = wall
		l.committedTarget = l.startCommitted + l.instructions
	}
	if l.measuring && s.core.Committed() >= l.committedTarget {
		s.finish()
		return nil
	}
	if wall > s.cfg.MaxWallTime {
		return fmt.Errorf("core: %s/%s exceeded MaxWallTime %v s without finishing (clock stuck?)",
			s.prof.Name, s.policy.Name(), s.cfg.MaxWallTime)
	}
	return nil
}

// finish closes the measured window: it fills in the Result from the core
// and thermal state at this step boundary and marks the run done.
func (s *Simulator) finish() {
	l := &s.l
	res := &l.res
	res.Instructions = s.core.Committed() - l.startCommitted
	res.Cycles = s.core.Cycle() - l.startCycles
	res.WallTime = l.wall - l.startWall
	if l.maxTemp < -1e8 {
		// Degenerate window (target smaller than one thermal step): report
		// the current state rather than the sentinel.
		l.hottest, l.maxTemp = s.tm.MaxBlockTemp()
	}
	res.MaxTemp = l.maxTemp
	res.HottestBlock = s.fp.Block(l.hottest).Name
	res.EnergyJ = l.energy
	if res.WallTime > 0 {
		res.AvgPower = l.energy / res.WallTime
		res.AvgGate /= res.WallTime
	}
	if res.Cycles > 0 {
		res.AvgIPC = float64(res.Instructions) / float64(res.Cycles)
	}
	l.done = true
}
