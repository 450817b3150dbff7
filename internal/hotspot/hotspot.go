// Package hotspot builds a compact block-level thermal model of a packaged
// die in the style of the HotSpot model the paper uses (Skadron et al.,
// ISCA'03): each floorplan block becomes an RC node connected vertically
// through the thermal interface to a copper heat spreader, laterally to its
// floorplan neighbours, and onward through a heat sink to the ambient via a
// convection resistance. The equivalent RC circuit is derived purely from
// microarchitectural block areas and package material properties, which is
// exactly what makes the approach usable at planning stage (§3).
//
// Node layout: one node per block, then spreader center + 4 spreader edge
// nodes, then sink center + 4 sink edge nodes. Temperatures are absolute
// (°C); internally the RC network works in rise-over-ambient.
package hotspot

import (
	"fmt"

	"hybriddtm/internal/floorplan"
	"hybriddtm/internal/rc"
)

// PackageConfig collects the geometric and material parameters of the die,
// thermal interface, spreader, sink and convection path. The defaults
// reproduce the paper's setup: 0.5 mm die, copper spreader and sink, and an
// equivalent sink-to-air resistance of 1.0 K/W — a low-cost package chosen
// to push SPEC benchmarks into thermal stress (§3).
type PackageConfig struct {
	DieThickness  float64 // m
	SiliconK      float64 // W/(m·K)
	SiliconVolCap float64 // J/(m³·K)

	TIMThickness float64 // thermal interface material thickness, m
	TIMK         float64 // W/(m·K)

	SpreaderSide      float64 // m
	SpreaderThickness float64 // m
	CopperK           float64 // W/(m·K)
	CopperVolCap      float64 // J/(m³·K)

	SinkSide      float64 // m (square base)
	SinkThickness float64 // m

	RConvection float64 // total equivalent sink-to-air resistance, K/W
	Ambient     float64 // °C

	// CapFactor is the empirical scaling applied to lumped capacitances so
	// the compact model matches finite-element transients (HotSpot uses a
	// similar fitting factor).
	CapFactor float64
}

// DefaultPackage returns the paper's package: 0.5 mm die, copper spreader
// (30×30×1 mm) and copper sink (60×60×6.9 mm base), 1.0 K/W convection,
// 45 °C ambient.
func DefaultPackage() PackageConfig {
	return PackageConfig{
		DieThickness:  0.5e-3,
		SiliconK:      100,
		SiliconVolCap: 1.75e6,

		TIMThickness: 20e-6,
		TIMK:         4,

		SpreaderSide:      30e-3,
		SpreaderThickness: 1e-3,
		CopperK:           400,
		CopperVolCap:      3.55e6,

		SinkSide:      60e-3,
		SinkThickness: 6.9e-3,

		RConvection: 1.0,
		Ambient:     45,

		CapFactor: 0.5,
	}
}

// Validate checks that every parameter is physically meaningful.
func (c PackageConfig) Validate() error {
	pos := []struct {
		name string
		v    float64
	}{
		{"DieThickness", c.DieThickness},
		{"SiliconK", c.SiliconK},
		{"SiliconVolCap", c.SiliconVolCap},
		{"TIMThickness", c.TIMThickness},
		{"TIMK", c.TIMK},
		{"SpreaderSide", c.SpreaderSide},
		{"SpreaderThickness", c.SpreaderThickness},
		{"CopperK", c.CopperK},
		{"CopperVolCap", c.CopperVolCap},
		{"SinkSide", c.SinkSide},
		{"SinkThickness", c.SinkThickness},
		{"RConvection", c.RConvection},
		{"CapFactor", c.CapFactor},
	}
	for _, p := range pos {
		if !(p.v > 0) {
			return fmt.Errorf("hotspot: %s = %v must be positive", p.name, p.v)
		}
	}
	if c.SpreaderSide < 1e-4 || c.SinkSide < c.SpreaderSide {
		return fmt.Errorf("hotspot: sink (%v) must be at least as large as spreader (%v)",
			c.SinkSide, c.SpreaderSide)
	}
	return nil
}

// Model is a ready-to-step thermal model for one floorplan + package. It
// owns its temperature state; power vectors are supplied per step.
type Model struct {
	fp  *floorplan.Floorplan
	cfg PackageConfig
	nw  *rc.Network

	nBlocks int
	theta   []float64 // rise over ambient, all nodes
	pFull   []float64 // scratch: power over all nodes
	ssTheta []float64 // scratch: steady-state solve over all nodes
	time    float64   // simulated seconds since Init
}

// Extra node indices relative to nBlocks.
const (
	spCenter = iota
	spN
	spS
	spE
	spW
	sinkCenter
	sinkN
	sinkS
	sinkE
	sinkW
	numExtra
)

var extraNames = [numExtra]string{
	"spreader_center", "spreader_N", "spreader_S", "spreader_E", "spreader_W",
	"sink_center", "sink_N", "sink_S", "sink_E", "sink_W",
}

// NewModel derives the RC network from the floorplan and package config.
func NewModel(fp *floorplan.Floorplan, cfg PackageConfig) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if fp == nil || fp.NumBlocks() == 0 {
		return nil, fmt.Errorf("hotspot: nil or empty floorplan")
	}
	nB := fp.NumBlocks()
	die := fp.DieRect()
	if die.W > cfg.SpreaderSide || die.H > cfg.SpreaderSide {
		return nil, fmt.Errorf("hotspot: die (%v×%v m) larger than spreader (%v m)",
			die.W, die.H, cfg.SpreaderSide)
	}

	names := make([]string, nB+numExtra)
	caps := make([]float64, nB+numExtra)
	for i := 0; i < nB; i++ {
		b := fp.Block(i)
		names[i] = b.Name
		caps[i] = cfg.CapFactor * cfg.SiliconVolCap * b.Rect.Area() * cfg.DieThickness
	}

	dieArea := die.Area()
	spArea := cfg.SpreaderSide * cfg.SpreaderSide
	sinkArea := cfg.SinkSide * cfg.SinkSide
	spEdgeArea := (spArea - dieArea) / 4
	if spEdgeArea <= 0 {
		return nil, fmt.Errorf("hotspot: die area %v fills spreader %v entirely", dieArea, spArea)
	}
	sinkEdgeArea := (sinkArea - spArea) / 4
	if sinkEdgeArea <= 0 {
		return nil, fmt.Errorf("hotspot: spreader area %v fills sink %v entirely", spArea, sinkArea)
	}

	cuCap := func(area, thickness float64) float64 {
		return cfg.CapFactor * cfg.CopperVolCap * area * thickness
	}
	names[nB+spCenter] = extraNames[spCenter]
	caps[nB+spCenter] = cuCap(dieArea, cfg.SpreaderThickness)
	for _, e := range []int{spN, spS, spE, spW} {
		names[nB+e] = extraNames[e]
		caps[nB+e] = cuCap(spEdgeArea, cfg.SpreaderThickness)
	}
	names[nB+sinkCenter] = extraNames[sinkCenter]
	caps[nB+sinkCenter] = cuCap(spArea, cfg.SinkThickness)
	for _, e := range []int{sinkN, sinkS, sinkE, sinkW} {
		names[nB+e] = extraNames[e]
		caps[nB+e] = cuCap(sinkEdgeArea, cfg.SinkThickness)
	}

	nw, err := rc.NewNetwork(names, caps)
	if err != nil {
		return nil, err
	}

	// Vertical path per block: half the die thickness within silicon plus
	// the thermal interface layer down to the spreader center node.
	for i := 0; i < nB; i++ {
		a := fp.Block(i).Rect.Area()
		rVert := cfg.DieThickness/2/(cfg.SiliconK*a) + cfg.TIMThickness/(cfg.TIMK*a)
		if err := nw.AddResistance(i, nB+spCenter, rVert); err != nil {
			return nil, err
		}
	}

	// Lateral conduction in silicon between adjacent blocks: the heat path
	// is center-to-center through the shared edge cross-section
	// (die thickness × shared length).
	for _, adj := range fp.Adjacencies() {
		rLat := adj.CenterDist / (cfg.SiliconK * cfg.DieThickness * adj.SharedLen)
		if err := nw.AddResistance(adj.A, adj.B, rLat); err != nil {
			return nil, err
		}
	}

	// Spreader center to each spreader edge: conduction through copper over
	// roughly a quarter of the spreader span, cross-section = die edge ×
	// spreader thickness.
	dieSide := (die.W + die.H) / 2
	dLatSp := (cfg.SpreaderSide + dieSide) / 4
	rSpLat := dLatSp / (cfg.CopperK * cfg.SpreaderThickness * dieSide)
	for _, e := range []int{spN, spS, spE, spW} {
		if err := nw.AddResistance(nB+spCenter, nB+e, rSpLat); err != nil {
			return nil, err
		}
	}

	// Spreader to sink, vertically: through half the spreader plus half the
	// sink base over the relevant footprint.
	rSpSink := cfg.SpreaderThickness/2/(cfg.CopperK*dieArea) +
		cfg.SinkThickness/2/(cfg.CopperK*dieArea)
	if err := nw.AddResistance(nB+spCenter, nB+sinkCenter, rSpSink); err != nil {
		return nil, err
	}
	rSpEdgeSink := cfg.SpreaderThickness/2/(cfg.CopperK*spEdgeArea) +
		cfg.SinkThickness/2/(cfg.CopperK*spEdgeArea)
	for _, e := range []int{spN, spS, spE, spW} {
		if err := nw.AddResistance(nB+e, nB+sinkCenter, rSpEdgeSink); err != nil {
			return nil, err
		}
	}

	// Sink center to sink edges: lateral conduction through the base.
	dLatSink := (cfg.SinkSide + cfg.SpreaderSide) / 4
	rSinkLat := dLatSink / (cfg.CopperK * cfg.SinkThickness * cfg.SpreaderSide)
	for _, e := range []int{sinkN, sinkS, sinkE, sinkW} {
		if err := nw.AddResistance(nB+sinkCenter, nB+e, rSinkLat); err != nil {
			return nil, err
		}
	}

	// Convection: total RConvection distributed across the five sink nodes
	// proportionally to their footprint (parallel combination restores the
	// configured total).
	rConvCenter := cfg.RConvection * sinkArea / spArea
	if err := nw.AddToAmbient(nB+sinkCenter, rConvCenter); err != nil {
		return nil, err
	}
	rConvEdge := cfg.RConvection * sinkArea / sinkEdgeArea
	for _, e := range []int{sinkN, sinkS, sinkE, sinkW} {
		if err := nw.AddToAmbient(nB+e, rConvEdge); err != nil {
			return nil, err
		}
	}

	if err := nw.Finalize(); err != nil {
		return nil, err
	}

	m := &Model{
		fp:      fp,
		cfg:     cfg,
		nw:      nw,
		nBlocks: nB,
		theta:   make([]float64, nB+numExtra),
		pFull:   make([]float64, nB+numExtra),
		ssTheta: make([]float64, nB+numExtra),
	}
	return m, nil
}

// Floorplan returns the floorplan the model was built from.
func (m *Model) Floorplan() *floorplan.Floorplan { return m.fp }

// Config returns the package configuration.
func (m *Model) Config() PackageConfig { return m.cfg }

// NumBlocks returns the number of die blocks (excluding package nodes).
func (m *Model) NumBlocks() int { return m.nBlocks }

// NumNodes returns the total node count including package nodes.
func (m *Model) NumNodes() int { return m.nBlocks + numExtra }

// NodeName returns the name of node i (blocks first, then package nodes).
func (m *Model) NodeName(i int) string { return m.nw.NodeName(i) }

// Time returns simulated seconds accumulated by Step since the last Init.
func (m *Model) Time() float64 { return m.time }

func (m *Model) fillPower(blockPower []float64) error {
	if len(blockPower) != m.nBlocks {
		return fmt.Errorf("hotspot: power vector length %d, want %d", len(blockPower), m.nBlocks)
	}
	copy(m.pFull, blockPower)
	for i := m.nBlocks; i < len(m.pFull); i++ {
		m.pFull[i] = 0
	}
	return nil
}

// Init sets the model state to the steady-state temperatures for the given
// per-block power vector (W), mirroring the paper's procedure of starting
// simulations from steady state (§3).
func (m *Model) Init(blockPower []float64) error {
	if err := m.fillPower(blockPower); err != nil {
		return err
	}
	if err := m.nw.SteadyStateInto(m.theta, m.pFull); err != nil {
		return err
	}
	m.time = 0
	return nil
}

// ShiftBlocks adds delta (°C) to every die-block node, leaving the
// spreader and sink untouched. The simulator uses it to start a managed
// run with the silicon pulled down to the DTM-held level while the package
// stays at the workload's hot steady state — silicon re-equilibrates in
// milliseconds, the package over seconds to minutes, so this is the state
// a chip under active DTM actually sits in.
func (m *Model) ShiftBlocks(delta float64) {
	for i := 0; i < m.nBlocks; i++ {
		m.theta[i] += delta
	}
}

// InitUniform sets every node to the given absolute temperature.
func (m *Model) InitUniform(tempC float64) {
	for i := range m.theta {
		m.theta[i] = tempC - m.cfg.Ambient
	}
	m.time = 0
}

// Step advances the model by dt seconds with the given per-block power (W)
// held constant over the interval. It uses backward Euler, which is robust
// for the stiff block/package time-constant mix and fast because the
// factorization is cached per distinct dt (DVS changes dt only between a
// handful of frequency settings).
func (m *Model) Step(blockPower []float64, dt float64) error {
	if err := m.fillPower(blockPower); err != nil {
		return err
	}
	if err := m.nw.StepBE(m.theta, m.pFull, dt); err != nil {
		return err
	}
	m.time += dt
	return nil
}

// StepRK4 is Step with the explicit integrator; used for cross-validation.
func (m *Model) StepRK4(blockPower []float64, dt float64) error {
	if err := m.fillPower(blockPower); err != nil {
		return err
	}
	if err := m.nw.StepRK4(m.theta, m.pFull, dt); err != nil {
		return err
	}
	m.time += dt
	return nil
}

// SteadyState returns the absolute steady-state block temperatures for a
// power vector without touching the model's own state.
func (m *Model) SteadyState(blockPower []float64) ([]float64, error) {
	out := make([]float64, m.nBlocks)
	if err := m.SteadyStateInto(out, blockPower); err != nil {
		return nil, err
	}
	return out, nil
}

// SteadyStateInto is SteadyState writing into dst, which must have length
// NumBlocks. After the network's first steady-state factorization the call
// is allocation-free, so iterative power–temperature fixed points can run
// it every iteration without garbage.
func (m *Model) SteadyStateInto(dst, blockPower []float64) error {
	if len(dst) != m.nBlocks {
		return fmt.Errorf("hotspot: dst length %d, want %d", len(dst), m.nBlocks)
	}
	if err := m.fillPower(blockPower); err != nil {
		return err
	}
	if err := m.nw.SteadyStateInto(m.ssTheta, m.pFull); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = m.ssTheta[i] + m.cfg.Ambient
	}
	return nil
}

// BlockTemps writes the absolute block temperatures (°C) into dst and
// returns it; dst is allocated if nil or short.
func (m *Model) BlockTemps(dst []float64) []float64 {
	if cap(dst) < m.nBlocks {
		dst = make([]float64, m.nBlocks)
	}
	dst = dst[:m.nBlocks]
	for i := range dst {
		dst[i] = m.theta[i] + m.cfg.Ambient
	}
	return dst
}

// NodeTemp returns the absolute temperature of node i (including package
// nodes).
func (m *Model) NodeTemp(i int) float64 { return m.theta[i] + m.cfg.Ambient }

// MaxBlockTemp returns the index and absolute temperature of the hottest
// die block.
func (m *Model) MaxBlockTemp() (int, float64) {
	best, bt := 0, m.theta[0]
	for i := 1; i < m.nBlocks; i++ {
		if m.theta[i] > bt {
			best, bt = i, m.theta[i]
		}
	}
	return best, bt + m.cfg.Ambient
}

// SinkTemp returns the sink center temperature, the slowest-moving state in
// the model (the paper notes it changes little over simulated intervals).
func (m *Model) SinkTemp() float64 {
	return m.theta[m.nBlocks+sinkCenter] + m.cfg.Ambient
}
