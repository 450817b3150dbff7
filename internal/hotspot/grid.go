package hotspot

import (
	"fmt"
	"strconv"

	"hybriddtm/internal/floorplan"
	"hybriddtm/internal/geom"
	"hybriddtm/internal/rc"
)

// GridModel is the finer-grained companion to Model: the die is
// discretized into a regular grid of thermal cells instead of one node per
// block, as in HotSpot's grid mode. Block powers are spread over the cells
// they overlap; the same spreader/sink/convection stack sits underneath.
// The grid model resolves intra-block gradients (the hottest spot inside a
// large block) and serves as the reference the block model is validated
// against.
type GridModel struct {
	fp         *floorplan.Floorplan
	cfg        PackageConfig
	rows, cols int
	nw         *rc.Network

	die geom.Rect
	// overlap[b] lists (cell, fraction-of-block-power) pairs for block b.
	overlap [][]cellShare

	theta   []float64
	pFull   []float64
	ssTheta []float64 // scratch: steady-state solve over all nodes
}

type cellShare struct {
	cell int
	frac float64
}

// NewGridModel builds a rows×cols grid over the floorplan's die.
func NewGridModel(fp *floorplan.Floorplan, cfg PackageConfig, rows, cols int) (*GridModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if fp == nil || fp.NumBlocks() == 0 {
		return nil, fmt.Errorf("hotspot: nil or empty floorplan")
	}
	if rows < 2 || cols < 2 {
		return nil, fmt.Errorf("hotspot: grid %dx%d too small (want ≥2x2)", rows, cols)
	}
	die := fp.DieRect()
	if die.W > cfg.SpreaderSide || die.H > cfg.SpreaderSide {
		return nil, fmt.Errorf("hotspot: die larger than spreader")
	}
	nCells := rows * cols
	cellW := die.W / float64(cols)
	cellH := die.H / float64(rows)
	cellArea := cellW * cellH

	names := make([]string, nCells+numExtra)
	caps := make([]float64, nCells+numExtra)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := r*cols + c
			names[i] = "cell_" + strconv.Itoa(r) + "_" + strconv.Itoa(c)
			caps[i] = cfg.CapFactor * cfg.SiliconVolCap * cellArea * cfg.DieThickness
		}
	}
	dieArea := die.Area()
	spArea := cfg.SpreaderSide * cfg.SpreaderSide
	sinkArea := cfg.SinkSide * cfg.SinkSide
	spEdgeArea := (spArea - dieArea) / 4
	sinkEdgeArea := (sinkArea - spArea) / 4
	if spEdgeArea <= 0 || sinkEdgeArea <= 0 {
		return nil, fmt.Errorf("hotspot: package areas degenerate")
	}
	cuCap := func(area, thickness float64) float64 {
		return cfg.CapFactor * cfg.CopperVolCap * area * thickness
	}
	names[nCells+spCenter] = extraNames[spCenter]
	caps[nCells+spCenter] = cuCap(dieArea, cfg.SpreaderThickness)
	for _, e := range []int{spN, spS, spE, spW} {
		names[nCells+e] = extraNames[e]
		caps[nCells+e] = cuCap(spEdgeArea, cfg.SpreaderThickness)
	}
	names[nCells+sinkCenter] = extraNames[sinkCenter]
	caps[nCells+sinkCenter] = cuCap(spArea, cfg.SinkThickness)
	for _, e := range []int{sinkN, sinkS, sinkE, sinkW} {
		names[nCells+e] = extraNames[e]
		caps[nCells+e] = cuCap(sinkEdgeArea, cfg.SinkThickness)
	}

	nw, err := rc.NewNetwork(names, caps)
	if err != nil {
		return nil, err
	}

	// Vertical path per cell and lateral conduction between neighbours.
	rVert := cfg.DieThickness/2/(cfg.SiliconK*cellArea) + cfg.TIMThickness/(cfg.TIMK*cellArea)
	rLatH := cellW / (cfg.SiliconK * cfg.DieThickness * cellH)
	rLatV := cellH / (cfg.SiliconK * cfg.DieThickness * cellW)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := r*cols + c
			if err := nw.AddResistance(i, nCells+spCenter, rVert); err != nil {
				return nil, err
			}
			if c+1 < cols {
				if err := nw.AddResistance(i, i+1, rLatH); err != nil {
					return nil, err
				}
			}
			if r+1 < rows {
				if err := nw.AddResistance(i, i+cols, rLatV); err != nil {
					return nil, err
				}
			}
		}
	}

	// Package stack, identical to the block model.
	dieSide := (die.W + die.H) / 2
	dLatSp := (cfg.SpreaderSide + dieSide) / 4
	rSpLat := dLatSp / (cfg.CopperK * cfg.SpreaderThickness * dieSide)
	for _, e := range []int{spN, spS, spE, spW} {
		if err := nw.AddResistance(nCells+spCenter, nCells+e, rSpLat); err != nil {
			return nil, err
		}
	}
	rSpSink := cfg.SpreaderThickness/2/(cfg.CopperK*dieArea) +
		cfg.SinkThickness/2/(cfg.CopperK*dieArea)
	if err := nw.AddResistance(nCells+spCenter, nCells+sinkCenter, rSpSink); err != nil {
		return nil, err
	}
	rSpEdgeSink := cfg.SpreaderThickness/2/(cfg.CopperK*spEdgeArea) +
		cfg.SinkThickness/2/(cfg.CopperK*spEdgeArea)
	for _, e := range []int{spN, spS, spE, spW} {
		if err := nw.AddResistance(nCells+e, nCells+sinkCenter, rSpEdgeSink); err != nil {
			return nil, err
		}
	}
	dLatSink := (cfg.SinkSide + cfg.SpreaderSide) / 4
	rSinkLat := dLatSink / (cfg.CopperK * cfg.SinkThickness * cfg.SpreaderSide)
	for _, e := range []int{sinkN, sinkS, sinkE, sinkW} {
		if err := nw.AddResistance(nCells+sinkCenter, nCells+e, rSinkLat); err != nil {
			return nil, err
		}
	}
	if err := nw.AddToAmbient(nCells+sinkCenter, cfg.RConvection*sinkArea/spArea); err != nil {
		return nil, err
	}
	for _, e := range []int{sinkN, sinkS, sinkE, sinkW} {
		if err := nw.AddToAmbient(nCells+e, cfg.RConvection*sinkArea/sinkEdgeArea); err != nil {
			return nil, err
		}
	}
	if err := nw.Finalize(); err != nil {
		return nil, err
	}

	// Block→cell power mapping by overlap area.
	overlap := make([][]cellShare, fp.NumBlocks())
	for b := 0; b < fp.NumBlocks(); b++ {
		rect := fp.Block(b).Rect
		var shares []cellShare
		var total float64
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				cell := geom.Rect{
					X: die.X + float64(c)*cellW,
					Y: die.Y + float64(r)*cellH,
					W: cellW,
					H: cellH,
				}
				a := overlapArea(rect, cell)
				if a > 0 {
					shares = append(shares, cellShare{cell: r*cols + c, frac: a})
					total += a
				}
			}
		}
		if total <= 0 {
			return nil, fmt.Errorf("hotspot: block %q overlaps no grid cell", fp.Block(b).Name)
		}
		for i := range shares {
			shares[i].frac /= total
		}
		overlap[b] = shares
	}

	return &GridModel{
		fp:      fp,
		cfg:     cfg,
		rows:    rows,
		cols:    cols,
		nw:      nw,
		die:     die,
		overlap: overlap,
		theta:   make([]float64, nCells+numExtra),
		pFull:   make([]float64, nCells+numExtra),
		ssTheta: make([]float64, nCells+numExtra),
	}, nil
}

func overlapArea(a, b geom.Rect) float64 {
	w := minf(a.Right(), b.Right()) - maxf(a.X, b.X)
	h := minf(a.Top(), b.Top()) - maxf(a.Y, b.Y)
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Rows returns the grid height.
func (g *GridModel) Rows() int { return g.rows }

// Cols returns the grid width.
func (g *GridModel) Cols() int { return g.cols }

// NumCells returns rows × cols.
func (g *GridModel) NumCells() int { return g.rows * g.cols }

// spreadPower maps per-block power onto the cell vector.
func (g *GridModel) spreadPower(blockPower []float64) error {
	if len(blockPower) != g.fp.NumBlocks() {
		return fmt.Errorf("hotspot: power vector length %d, want %d", len(blockPower), g.fp.NumBlocks())
	}
	for i := range g.pFull {
		g.pFull[i] = 0
	}
	for b, shares := range g.overlap {
		for _, s := range shares {
			g.pFull[s.cell] += blockPower[b] * s.frac
		}
	}
	return nil
}

// SteadyState solves the grid steady state for a per-block power vector
// and returns absolute per-cell temperatures (row-major).
func (g *GridModel) SteadyState(blockPower []float64) ([]float64, error) {
	out := make([]float64, g.NumCells())
	if err := g.SteadyStateInto(out, blockPower); err != nil {
		return nil, err
	}
	return out, nil
}

// SteadyStateInto is SteadyState writing into dst, which must have length
// NumCells. The underlying conductance factorization is computed once and
// cached, so repeated calls — the grid sweep workloads in cmd/experiments —
// cost one sparse back-substitution each and allocate nothing.
func (g *GridModel) SteadyStateInto(dst, blockPower []float64) error {
	if len(dst) != g.NumCells() {
		return fmt.Errorf("hotspot: dst length %d, want %d cells", len(dst), g.NumCells())
	}
	if err := g.spreadPower(blockPower); err != nil {
		return err
	}
	if err := g.nw.SteadyStateInto(g.ssTheta, g.pFull); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = g.ssTheta[i] + g.cfg.Ambient
	}
	return nil
}

// Init sets the model to the steady state for the power vector.
func (g *GridModel) Init(blockPower []float64) error {
	if err := g.spreadPower(blockPower); err != nil {
		return err
	}
	return g.nw.SteadyStateInto(g.theta, g.pFull)
}

// Step advances the transient by dt seconds under the per-block power.
func (g *GridModel) Step(blockPower []float64, dt float64) error {
	if err := g.spreadPower(blockPower); err != nil {
		return err
	}
	return g.nw.StepBE(g.theta, g.pFull, dt)
}

// CellTemps returns absolute per-cell temperatures of the current state.
func (g *GridModel) CellTemps(dst []float64) []float64 {
	n := g.NumCells()
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = g.theta[i] + g.cfg.Ambient
	}
	return dst
}

// BlockAverage reduces per-cell temperatures to per-block averages
// (weighted by overlap), comparable with the block model's output.
func (g *GridModel) BlockAverage(cellTemps []float64) ([]float64, error) {
	out := make([]float64, g.fp.NumBlocks())
	if err := g.BlockAverageInto(out, cellTemps); err != nil {
		return nil, err
	}
	return out, nil
}

// BlockAverageInto is BlockAverage writing into dst, which must have length
// NumBlocks. Allocation-free; dst must not alias cellTemps.
func (g *GridModel) BlockAverageInto(dst, cellTemps []float64) error {
	if len(cellTemps) != g.NumCells() {
		return fmt.Errorf("hotspot: %d cell temps for %d cells", len(cellTemps), g.NumCells())
	}
	if len(dst) != g.fp.NumBlocks() {
		return fmt.Errorf("hotspot: dst length %d, want %d blocks", len(dst), g.fp.NumBlocks())
	}
	for b, shares := range g.overlap {
		var s float64
		for _, sh := range shares {
			s += cellTemps[sh.cell] * sh.frac
		}
		dst[b] = s
	}
	return nil
}

// HottestCell returns the location and temperature of the hottest cell.
func (g *GridModel) HottestCell(cellTemps []float64) (row, col int, temp float64) {
	best := 0
	for i := 1; i < len(cellTemps); i++ {
		if cellTemps[i] > cellTemps[best] {
			best = i
		}
	}
	return best / g.cols, best % g.cols, cellTemps[best]
}

// CellCenter returns the die coordinates of a cell's center.
func (g *GridModel) CellCenter(row, col int) (x, y float64) {
	return g.die.X + (float64(col)+0.5)*g.die.W/float64(g.cols),
		g.die.Y + (float64(row)+0.5)*g.die.H/float64(g.rows)
}
