package dtm

import (
	"fmt"

	"hybriddtm/internal/control"
)

// VectorPolicy is an optional extension of Policy for techniques that need
// the full per-block sensor vector rather than only the comparator maximum
// (the simulator detects it and supplies every reading). Local toggling is
// the motivating case: it slows only the domain in thermal stress.
type VectorPolicy interface {
	Policy
	SampleVector(readings []float64, dt float64) Decision
}

// Domains maps floorplan block indices into the three issue domains local
// toggling can gate independently. Indices not listed in any domain do not
// drive the controllers (their heat still shows up through lateral
// coupling).
type Domains struct {
	Int, FP, Mem []int
}

// Validate checks the domain sets.
func (d Domains) Validate() error {
	if len(d.Int) == 0 && len(d.FP) == 0 && len(d.Mem) == 0 {
		return fmt.Errorf("dtm: local toggling needs at least one non-empty domain")
	}
	return nil
}

type localToggling struct {
	trigger float64
	domains Domains
	intCtl  *control.Integrator
	fpCtl   *control.Integrator
	memCtl  *control.Integrator
}

// LocalToggling returns the per-domain slowing technique the paper
// discusses in §2 ("local toggling, in which the processor domain(s) in
// thermal stress are slowed or stopped") and reports as conferring little
// advantage over fetch gating — a claim this repository reproduces (see
// the LocalVsFG experiment). Each domain's issue stage is gated by its own
// integral controller driven by the hottest sensor within the domain.
func LocalToggling(trigger, ki, maxGate float64, domains Domains) (VectorPolicy, error) {
	if err := domains.Validate(); err != nil {
		return nil, err
	}
	if maxGate <= 0 || maxGate >= 1 {
		return nil, fmt.Errorf("dtm: max gate %v outside (0,1)", maxGate)
	}
	if ki <= 0 {
		return nil, fmt.Errorf("dtm: non-positive integral gain %v", ki)
	}
	mk := func() (*control.Integrator, error) {
		return control.NewIntegrator(ki, 0, maxGate)
	}
	intCtl, err := mk()
	if err != nil {
		return nil, err
	}
	fpCtl, err := mk()
	if err != nil {
		return nil, err
	}
	memCtl, err := mk()
	if err != nil {
		return nil, err
	}
	return &localToggling{
		trigger: trigger,
		domains: domains,
		intCtl:  intCtl,
		fpCtl:   fpCtl,
		memCtl:  memCtl,
	}, nil
}

func (p *localToggling) Name() string { return "local" }

// Sample implements the base interface for contexts that only have the
// maximum reading: every domain sees the same error, which degenerates to
// uniform issue gating.
func (p *localToggling) Sample(maxReading, dt float64) Decision {
	err := maxReading - p.trigger
	return Decision{
		IntGate: p.intCtl.Update(err, dt),
		FPGate:  p.fpCtl.Update(err, dt),
		MemGate: p.memCtl.Update(err, dt),
	}
}

func maxOver(readings []float64, idx []int) (float64, bool) {
	if len(idx) == 0 {
		return 0, false
	}
	m := readings[idx[0]]
	for _, i := range idx[1:] {
		if readings[i] > m {
			m = readings[i]
		}
	}
	return m, true
}

// SampleVector drives each domain's controller with that domain's hottest
// sensor.
func (p *localToggling) SampleVector(readings []float64, dt float64) Decision {
	var d Decision
	if m, ok := maxOver(readings, p.domains.Int); ok {
		d.IntGate = p.intCtl.Update(m-p.trigger, dt)
	}
	if m, ok := maxOver(readings, p.domains.FP); ok {
		d.FPGate = p.fpCtl.Update(m-p.trigger, dt)
	}
	if m, ok := maxOver(readings, p.domains.Mem); ok {
		d.MemGate = p.memCtl.Update(m-p.trigger, dt)
	}
	return d
}

func (p *localToggling) Reset() {
	p.intCtl.Reset()
	p.fpCtl.Reset()
	p.memCtl.Reset()
}
