package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"

	"hybriddtm/internal/cpu"
	"hybriddtm/internal/dtm"
	"hybriddtm/internal/dvfs"
	"hybriddtm/internal/hotspot"
	"hybriddtm/internal/power"
	"hybriddtm/internal/sensor"
	"hybriddtm/internal/trace"
)

// Warm is the policy-independent state every coupled run starts from: the
// cpu core after warm-up and the init window, the converged per-block
// power of the power/temperature fixed point, and the hottest sensor
// reading expected there. None of it depends on the DTM policy, the
// trigger or the measured window, so one Warm can seed every policy run of
// a benchmark. Build it with WarmUp; start runs from it through a Cohort.
type Warm struct {
	in      warmInputs
	core    *cpu.Core // nil once a Cohort has taken it
	power   []float64 // W per block at the fixed point
	reading float64   // hottest expected sensor reading at the fixed point
}

// warmInputs is every input the warm state depends on: the cpu, package,
// technology, power, leakage and sensor models, the ladder's nominal
// point (the fixed point is solved there), the warm-up and init lengths,
// and the workload. It is the single list of warm fields: WarmKey encodes
// it and Cohort.Join checks it.
type warmInputs struct {
	CPU          cpu.Config
	Package      hotspot.PackageConfig
	Tech         dvfs.Technology
	Specs        []power.BlockSpec
	Leakage      power.LeakageConfig
	Sensors      sensor.Config
	Nominal      dvfs.OperatingPoint
	WarmupCycles uint64
	InitCycles   uint64
	Profile      trace.Profile
}

func inputsOf(cfg Config, prof trace.Profile) (warmInputs, error) {
	ladder, err := cfg.ladder()
	if err != nil {
		return warmInputs{}, err
	}
	return warmInputs{
		CPU:          cfg.CPU,
		Package:      cfg.Package,
		Tech:         cfg.Tech,
		Specs:        cfg.Specs,
		Leakage:      cfg.Leakage,
		Sensors:      cfg.Sensors,
		Nominal:      ladder.Nominal(),
		WarmupCycles: cfg.WarmupCycles,
		InitCycles:   cfg.InitCycles,
		Profile:      prof,
	}, nil
}

// WarmKey identifies the warm state a config and profile produce: two
// pairs with equal keys yield interchangeable Warms, whatever their
// policy-side fields (DVSStall, Trigger, Tracer, SettleInstructions, ...).
func WarmKey(cfg Config, prof trace.Profile) (string, error) {
	in, err := inputsOf(cfg, prof)
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(in)
	if err != nil {
		return "", fmt.Errorf("core: warm key: %w", err)
	}
	return string(b), nil
}

// WarmUp runs the warm step of a fresh simulator — cache and predictor
// warm-up, the init-activity window and the power/temperature fixed
// point — and returns its state for forking. A fresh New + Run computes
// the identical state through the same code.
func WarmUp(ctx context.Context, cfg Config, prof trace.Profile) (*Warm, error) {
	s, err := New(cfg, prof, nil)
	if err != nil {
		return nil, err
	}
	in, err := inputsOf(cfg, prof)
	if err != nil {
		return nil, err
	}
	w, err := s.warmUp(ctx)
	if err != nil {
		return nil, err
	}
	w.in = in
	return w, nil
}

// Cohort is a set of simulators that follow one cpu core. Until a run's
// policy first acts — gates, changes DVS level or stops the clock — the
// run's pipeline sees exactly what a run without DTM sees, so every member
// can take its activity from one shared batch per thermal step while
// keeping its own power, thermal, sensor and policy state. Step advances
// the members together and drops those that acted or finished; Fork then
// gives them (or any other subset) a core of their own at that step
// boundary.
//
// A Cohort is not safe for concurrent use, with one exception: several
// Forks that copy may read one stopped cohort at once. An adopting Fork
// must not overlap any other Fork of the cohort.
type Cohort struct {
	core         *cpu.Core // nil once adopted
	warm         *Warm
	instructions uint64
	atWarm       bool // the core is still at the warm state: Join is allowed

	sims []*Simulator // the members that step; Join adds none
	act  cpu.Activity
}

// NewCohort starts an empty cohort on w's core; members measure
// instructions each. The cohort takes the core, so w cannot start
// another.
func NewCohort(w *Warm, instructions uint64) (*Cohort, error) {
	if w == nil || w.core == nil {
		return nil, errors.New("core: warm state is nil or its core already taken")
	}
	if instructions == 0 {
		return nil, errors.New("core: zero instruction target")
	}
	c := &Cohort{core: w.core, warm: w, instructions: instructions, atWarm: true}
	w.core = nil
	return c, nil
}

// Join builds a simulator on the cohort's core that starts from its warm
// state; a Fork makes it step. cfg and prof must match the Warm's in every
// warm input (see WarmKey); policy-side fields are free. Simulators join
// while the core is still at the warm state.
func (c *Cohort) Join(cfg Config, prof trace.Profile, policy dtm.Policy) (*Simulator, error) {
	if !c.atWarm || c.core == nil {
		return nil, errors.New("core: cohort has left its warm state")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	in, err := inputsOf(cfg, prof)
	if err != nil {
		return nil, err
	}
	if err := c.warm.in.mismatch(in); err != nil {
		return nil, err
	}
	return assemble(cfg, prof, policy, c.core, c.warm)
}

// Fork moves members of c, which must not be stepping, onto a core of
// their own at c's current step boundary and returns them as a new
// cohort: a copy of c's core, or c's core itself when adopt is set, after
// which c cannot fork again. Members that have not begun their run begin
// it on the new core. A fork of one member is simply that run: finish it
// with RunContext. Several members share the new core and step together,
// so they must agree on ThermalStepCycles, carry no Profiler and not yet
// have acted.
func (c *Cohort) Fork(members []*Simulator, adopt bool) (*Cohort, error) {
	if c.core == nil {
		return nil, errors.New("core: cohort core already adopted")
	}
	for _, s := range members {
		if s.core != c.core {
			return nil, fmt.Errorf("core: %s/%s does not follow this cohort", s.prof.Name, s.policy.Name())
		}
		if len(members) > 1 && (s.cfg.Profiler != nil || (s.l.begun && !s.l.idle())) {
			return nil, fmt.Errorf("core: %s/%s cannot share a core: it is profiled or its policy has acted", s.prof.Name, s.policy.Name())
		}
		if s.cfg.ThermalStepCycles != members[0].cfg.ThermalStepCycles {
			return nil, errors.New("core: cohort members differ in ThermalStepCycles")
		}
	}
	core := c.core
	if adopt {
		c.core = nil
	} else {
		var err error
		if core, err = core.Clone(); err != nil {
			return nil, err
		}
	}
	if adopt {
		c.sims = nil // c is done with; let finished runs' cores go
	}
	f := &Cohort{core: core, warm: c.warm, instructions: c.instructions, atWarm: c.atWarm,
		sims: append([]*Simulator(nil), members...)}
	for _, s := range members {
		s.core = core
		if !s.l.begun {
			if err := s.apply(c.warm); err != nil {
				return nil, err
			}
			s.begin(c.instructions)
		} else if s.l.level != 0 {
			// A run that switched DVS level while it followed left the
			// shared core at nominal frequency; its own core takes the
			// new setting now, before its next batch.
			if err := core.SetFrequencyRatio(s.ladder.Point(s.l.level).F / s.l.nomF); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

// Step advances the cohort one thermal step: one ungated cpu batch at
// nominal frequency on the shared core, then every member's own step on
// that batch's activity. A member whose measured window completed
// (Done) or whose policy acted (not Idle) leaves the cohort. A finished
// run's RunContext returns its Result; an acted run goes on alone after a
// Fork. Once any member has acted, the cohort must stop stepping until
// the acted runs have forked, because they continue from this boundary.
//
//dtmlint:allocfree
func (c *Cohort) Step(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(c.sims) == 0 {
		return nil
	}
	for _, s := range c.sims {
		if !s.l.begun {
			return errors.New("core: cohort members begin on Fork")
		}
	}
	c.atWarm = false
	c.act.Reset()
	if _, err := c.core.RunGated(c.sims[0].l.stepCycles, cpu.Gates{}, &c.act); err != nil {
		return err
	}
	keep := c.sims[:0]
	for _, s := range c.sims {
		if err := s.step(&c.act); err != nil {
			return err
		}
		if !s.l.done && s.l.idle() {
			keep = append(keep, s) //dtmlint:allow allocguard filters c.sims in place
		}
	}
	clear(c.sims[len(keep):]) // a member that left must not pin its next core
	c.sims = keep
	return nil
}

// mismatch names the first warm input that differs between a Warm's
// inputs and a requested run's.
func (a warmInputs) mismatch(b warmInputs) error {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return fmt.Errorf("core: warm state was built with a different %s", va.Type().Field(i).Name)
		}
	}
	return nil
}
