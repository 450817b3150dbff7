// Package power implements a Wattch-style block-level power model: per-block
// peak dynamic power scaled by measured activity with conditional clocking
// (idle blocks still burn a fraction of peak through the clock network), a
// supply/frequency scaling term, and temperature-dependent leakage in the
// HotLeakage style. Leakage feeding back on temperature is what couples the
// power and thermal models (§3: "We updated Wattch's leakage model to model
// leakage as a function of temperature using ITRS projections").
package power

import (
	"fmt"
	"math"

	"hybriddtm/internal/dvfs"
	"hybriddtm/internal/floorplan"
)

// BlockSpec gives one block's power characteristics at the nominal
// operating point.
type BlockSpec struct {
	Name        string
	PeakDynamic float64 // W at nominal V/F and 100% activity
	IdleFrac    float64 // fraction of peak drawn when clocked but idle
}

// LeakageConfig describes static power: a chip-wide total at the reference
// temperature, distributed across blocks by area, growing exponentially
// with temperature.
type LeakageConfig struct {
	TotalAtRef float64 // chip leakage at TRef and nominal voltage, W
	TRef       float64 // °C
	Beta       float64 // 1/K; exp(Beta·ΔT) growth (≈ doubling per 30 K)
}

// DefaultLeakage returns ITRS-130nm-flavoured leakage: 8 W at 85 °C,
// doubling roughly every 30 K.
func DefaultLeakage() LeakageConfig {
	return LeakageConfig{TotalAtRef: 10, TRef: 85, Beta: math.Ln2 / 30}
}

// Validate checks the leakage configuration.
func (c LeakageConfig) Validate() error {
	if !(c.TotalAtRef >= 0) {
		return fmt.Errorf("power: negative leakage total %v", c.TotalAtRef)
	}
	if !(c.Beta >= 0) {
		return fmt.Errorf("power: negative leakage beta %v", c.Beta)
	}
	return nil
}

// Model computes per-block power from activity factors, operating point and
// temperature.
type Model struct {
	fp       *floorplan.Floorplan
	tech     dvfs.Technology
	peak     []float64
	idleFrac []float64
	leakRef  []float64
	leak     LeakageConfig
}

// NewModel builds a power model. Every floorplan block must appear exactly
// once in specs and vice versa.
func NewModel(fp *floorplan.Floorplan, tech dvfs.Technology, specs []BlockSpec, leak LeakageConfig) (*Model, error) {
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	if err := leak.Validate(); err != nil {
		return nil, err
	}
	n := fp.NumBlocks()
	if len(specs) != n {
		return nil, fmt.Errorf("power: %d specs for %d blocks", len(specs), n)
	}
	m := &Model{
		fp:       fp,
		tech:     tech,
		peak:     make([]float64, n),
		idleFrac: make([]float64, n),
		leakRef:  make([]float64, n),
		leak:     leak,
	}
	seen := make(map[string]bool, n)
	for _, s := range specs {
		i := fp.Index(s.Name)
		if i < 0 {
			return nil, fmt.Errorf("power: spec for unknown block %q", s.Name)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("power: duplicate spec for block %q", s.Name)
		}
		seen[s.Name] = true
		if !(s.PeakDynamic >= 0) {
			return nil, fmt.Errorf("power: block %q peak %v negative", s.Name, s.PeakDynamic)
		}
		if s.IdleFrac < 0 || s.IdleFrac > 1 {
			return nil, fmt.Errorf("power: block %q idle fraction %v outside [0,1]", s.Name, s.IdleFrac)
		}
		m.peak[i] = s.PeakDynamic
		m.idleFrac[i] = s.IdleFrac
	}
	// Distribute leakage by block area (leakage is proportional to device
	// count, which tracks area at fixed technology).
	total := fp.BlockArea()
	for i := 0; i < n; i++ {
		m.leakRef[i] = leak.TotalAtRef * fp.Block(i).Rect.Area() / total
	}
	return m, nil
}

// NumBlocks returns the block count.
func (m *Model) NumBlocks() int { return len(m.peak) }

// PeakDynamic returns block i's peak dynamic power at nominal V/F.
func (m *Model) PeakDynamic(i int) float64 { return m.peak[i] }

// PeakTotal returns the chip peak dynamic power at nominal V/F.
func (m *Model) PeakTotal() float64 {
	var s float64
	for _, p := range m.peak {
		s += p
	}
	return s
}

// Compute fills dst with per-block power (W) for an interval.
//
//   - activity[i] ∈ [0,1]: the block's switching activity relative to peak,
//     as counted by the CPU model over the interval.
//   - clockFrac ∈ [0,1]: fraction of the interval the clock was running
//     (1 except under global clock gating). Idle clock power only burns
//     while the clock runs; activity can never exceed clockFrac.
//   - v, f: the operating point (f matters because dynamic power is per
//     transition: halving frequency halves switching power even at equal
//     per-cycle activity).
//   - temps: absolute block temperatures (°C) for the leakage feedback; nil
//     disables leakage (used by ablation studies).
//
// dst is allocated if nil or short, and returned.
func (m *Model) Compute(dst, activity []float64, clockFrac, v, f float64, temps []float64) ([]float64, error) {
	n := len(m.peak)
	if len(activity) != n {
		return nil, fmt.Errorf("power: activity length %d, want %d", len(activity), n)
	}
	if temps != nil && len(temps) != n {
		return nil, fmt.Errorf("power: temps length %d, want %d", len(temps), n)
	}
	if clockFrac < 0 || clockFrac > 1 {
		return nil, fmt.Errorf("power: clock fraction %v outside [0,1]", clockFrac)
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	vfScale := (v / m.tech.VNominal) * (v / m.tech.VNominal) * (f / m.tech.FNominal)
	leakV := m.tech.LeakageVoltageScale(v)
	for i := 0; i < n; i++ {
		a := activity[i]
		if a < 0 {
			return nil, fmt.Errorf("power: negative activity %v at block %d", a, i)
		}
		if a > clockFrac {
			a = clockFrac // gated cycles cannot switch
		}
		dyn := m.peak[i] * (m.idleFrac[i]*clockFrac + (1-m.idleFrac[i])*a) * vfScale
		var lk float64
		if temps != nil {
			lk = m.leakRef[i] * leakV * math.Exp(m.leak.Beta*(temps[i]-m.leak.TRef))
		}
		dst[i] = dyn + lk
	}
	return dst, nil
}

// Total sums a per-block power vector.
func Total(p []float64) float64 {
	var s float64
	for _, v := range p {
		s += v
	}
	return s
}

// EV6Spec returns the calibrated per-block peak power table for the EV6
// floorplan at 0.13 µm / 1.3 V / 3 GHz. The absolute values are Wattch-like
// (dominated by caches, integer execution and the heavily multiported
// integer register file); they are calibrated so the nine hot SPEC profiles
// drive the integer register file — the smallest high-power block — to
// peak temperatures a few degrees around the 85 °C emergency threshold
// under the paper's low-cost 1.0 K/W package, reproducing §3's setup.
func EV6Spec() []BlockSpec {
	return []BlockSpec{
		{floorplan.L2, 3.0, 0.15},
		{floorplan.L2Left, 1.5, 0.15},
		{floorplan.L2Right, 1.5, 0.15},
		{floorplan.ICache, 6.0, 0.12},
		{floorplan.DCache, 6.5, 0.12},
		{floorplan.BPred, 2.8, 0.12},
		{floorplan.ITB, 0.6, 0.12},
		{floorplan.DTB, 0.7, 0.12},
		{floorplan.FPAdd, 3.2, 0.10},
		{floorplan.FPReg, 2.2, 0.10},
		{floorplan.FPMul, 3.6, 0.10},
		{floorplan.FPMap, 1.0, 0.10},
		{floorplan.FPQ, 0.9, 0.10},
		{floorplan.IntMap, 2.2, 0.12},
		{floorplan.IntQ, 3.2, 0.12},
		{floorplan.LdStQ, 2.8, 0.12},
		{floorplan.IntReg, 7.0, 0.15},
		{floorplan.IntExec, 8.5, 0.12},
	}
}
