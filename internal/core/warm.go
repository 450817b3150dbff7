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
// a benchmark. Build it with WarmUp; start runs from it with NewFromWarm.
//
// A Warm is read-only while it is being forked, so concurrent NewFromWarm
// calls on one Warm are safe. AdoptWarm hands the core itself to one last
// simulator and must not race with any fork.
type Warm struct {
	in      warmInputs
	core    *cpu.Core // nil once adopted
	power   []float64 // W per block at the fixed point
	reading float64   // hottest expected sensor reading at the fixed point
}

// warmInputs is every input the warm state depends on: the cpu, package,
// technology, power, leakage and sensor models, the ladder's nominal
// point (the fixed point is solved there), the warm-up and init lengths,
// and the workload. It is the single list of warm fields: WarmKey encodes
// it and NewFromWarm checks it.
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

// NewFromWarm is New starting from a Warm instead of warming its own core:
// the core is deep-copied from w and the thermal, power, sensor and ladder
// state is built fresh, so its Run gives the same Result and event stream
// as a fresh simulator's. cfg and prof must match w's in every warm input
// (see WarmKey); policy-side fields are free.
func NewFromWarm(cfg Config, prof trace.Profile, policy dtm.Policy, w *Warm) (*Simulator, error) {
	return fromWarm(cfg, prof, policy, w, false)
}

// AdoptWarm is NewFromWarm for a Warm's last user: the simulator takes
// over w's core instead of copying it, and w cannot be forked again.
func AdoptWarm(cfg Config, prof trace.Profile, policy dtm.Policy, w *Warm) (*Simulator, error) {
	return fromWarm(cfg, prof, policy, w, true)
}

func fromWarm(cfg Config, prof trace.Profile, policy dtm.Policy, w *Warm, adopt bool) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if w == nil || w.core == nil {
		return nil, errors.New("core: warm state is nil or already adopted")
	}
	in, err := inputsOf(cfg, prof)
	if err != nil {
		return nil, err
	}
	if err := w.in.mismatch(in); err != nil {
		return nil, err
	}
	c := w.core
	if adopt {
		w.core = nil
	} else if c, err = c.Clone(); err != nil {
		return nil, err
	}
	return assemble(cfg, prof, policy, c, w)
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
