package hotspot

import (
	"math"
	"testing"

	"hybriddtm/internal/floorplan"
)

func newGrid(t *testing.T, rows, cols int) *GridModel {
	t.Helper()
	g, err := NewGridModel(floorplan.EV6(), DefaultPackage(), rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGridModel(floorplan.EV6(), DefaultPackage(), 1, 8); err == nil {
		t.Error("accepted 1-row grid")
	}
	bad := DefaultPackage()
	bad.RConvection = -1
	if _, err := NewGridModel(floorplan.EV6(), bad, 8, 8); err == nil {
		t.Error("accepted invalid package")
	}
	if _, err := NewGridModel(nil, DefaultPackage(), 8, 8); err == nil {
		t.Error("accepted nil floorplan")
	}
}

func TestGridZeroPowerIsAmbient(t *testing.T) {
	g := newGrid(t, 8, 8)
	temps, err := g.SteadyState(make([]float64, floorplan.EV6().NumBlocks()))
	if err != nil {
		t.Fatal(err)
	}
	for i, temp := range temps {
		if math.Abs(temp-DefaultPackage().Ambient) > 1e-9 {
			t.Fatalf("cell %d at %v with zero power", i, temp)
		}
	}
}

func TestGridPowerConservation(t *testing.T) {
	// All heat must exit through the convection resistance: area-weighted
	// sink temperatures reflect total power, independent of grid size.
	fp := floorplan.EV6()
	p := make([]float64, fp.NumBlocks())
	total := 30.0
	for i := range p {
		p[i] = total * fp.Block(i).Rect.Area() / fp.BlockArea()
	}
	g := newGrid(t, 8, 8)
	temps, err := g.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	// Every cell must exceed the sink's minimum temperature rise.
	wantMin := DefaultPackage().Ambient + total*DefaultPackage().RConvection*0.8
	for i, temp := range temps {
		if temp < wantMin {
			t.Fatalf("cell %d at %v below the package floor %v", i, temp, wantMin)
		}
	}
}

func TestGridMatchesBlockModel(t *testing.T) {
	// With smoothly distributed power, block-averaged grid temperatures
	// must track the block model within a couple of degrees (the models
	// discretize the same physics).
	fp := floorplan.EV6()
	block, err := NewModel(fp, DefaultPackage())
	if err != nil {
		t.Fatal(err)
	}
	g := newGrid(t, 16, 16)

	p := make([]float64, fp.NumBlocks())
	for i := range p {
		p[i] = 30 * fp.Block(i).Rect.Area() / fp.BlockArea()
	}

	want, err := block.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.BlockAverage(cells)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > 2.0 {
			t.Errorf("block %s: grid %v vs block model %v (Δ %.2f)",
				fp.Block(i).Name, got[i], want[i], d)
		}
	}
}

func TestGridBelowBlockModelForConcentratedSource(t *testing.T) {
	// A small, intensely powered block spreads heat laterally beyond its
	// own footprint; the grid resolves that, so it predicts a cooler (more
	// accurate) hotspot than the single-node block model. This is the
	// known conservatism of block-granularity compact models.
	fp := floorplan.EV6()
	block, err := NewModel(fp, DefaultPackage())
	if err != nil {
		t.Fatal(err)
	}
	g := newGrid(t, 16, 16)
	p := make([]float64, fp.NumBlocks())
	for i := range p {
		p[i] = 28 * fp.Block(i).Rect.Area() / fp.BlockArea()
	}
	idx := fp.Index(floorplan.IntReg)
	p[idx] += 2.5
	want, err := block.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.BlockAverage(cells)
	if err != nil {
		t.Fatal(err)
	}
	if got[idx] > want[idx]+0.5 {
		t.Errorf("grid hotspot %v above block model %v; expected the block model to be conservative",
			got[idx], want[idx])
	}
	// Both must agree the boosted block is the hottest.
	for i := range got {
		if i != idx && got[i] >= got[idx] {
			t.Errorf("grid: block %s (%v) hotter than boosted IntReg (%v)",
				fp.Block(i).Name, got[i], got[idx])
		}
	}
}

func TestGridHottestCellInsideHotBlock(t *testing.T) {
	fp := floorplan.EV6()
	g := newGrid(t, 32, 32)
	p := make([]float64, fp.NumBlocks())
	idx := fp.Index(floorplan.IntReg)
	p[idx] = 4
	cells, err := g.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	r, c, temp := g.HottestCell(cells)
	x, y := g.CellCenter(r, c)
	if !fp.Block(idx).Rect.Contains(x, y) {
		t.Errorf("hottest cell (%d,%d) center (%.4f,%.4f) outside IntReg", r, c, x, y)
	}
	if temp <= DefaultPackage().Ambient {
		t.Errorf("hottest cell not above ambient: %v", temp)
	}
}

func TestGridResolvesIntraBlockGradient(t *testing.T) {
	// Heat only IntExec (a large block): its cells must show a gradient the
	// block model cannot represent — the interior hotter than the far edge
	// of the die.
	fp := floorplan.EV6()
	g := newGrid(t, 32, 32)
	p := make([]float64, fp.NumBlocks())
	p[fp.Index(floorplan.IntExec)] = 8
	cells, err := g.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	_, _, maxT := g.HottestCell(cells)
	minT := cells[0]
	for _, temp := range cells {
		if temp < minT {
			minT = temp
		}
	}
	if maxT-minT < 1 {
		t.Errorf("grid shows no spatial gradient: max %v min %v", maxT, minT)
	}
}

func TestGridTransientConverges(t *testing.T) {
	fp := floorplan.EV6()
	g := newGrid(t, 8, 8)
	p := make([]float64, fp.NumBlocks())
	for i := range p {
		p[i] = 25 * fp.Block(i).Rect.Area() / fp.BlockArea()
	}
	want, err := g.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Init(make([]float64, fp.NumBlocks())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := g.Step(p, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	got := g.CellTemps(nil)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 0.1 {
			t.Fatalf("cell %d: transient %v, steady %v", i, got[i], want[i])
		}
	}
}

func TestGridBadInputs(t *testing.T) {
	g := newGrid(t, 8, 8)
	if _, err := g.SteadyState(make([]float64, 3)); err == nil {
		t.Error("accepted short power vector")
	}
	if _, err := g.BlockAverage(make([]float64, 3)); err == nil {
		t.Error("accepted short cell vector")
	}
	if err := g.Step(make([]float64, 3), 1e-3); err == nil {
		t.Error("Step accepted short power vector")
	}
}

// TestGridIntoVariantsMatch pins the Into variants to their allocating
// counterparts bit for bit, and checks their length validation.
func TestGridIntoVariantsMatch(t *testing.T) {
	g := newGrid(t, 12, 12)
	fp := floorplan.EV6()
	p := make([]float64, fp.NumBlocks())
	for i := range p {
		p[i] = 40 * fp.Block(i).Rect.Area() / fp.BlockArea()
	}
	want, err := g.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, g.NumCells())
	if err := g.SteadyStateInto(dst, p); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
			t.Fatalf("cell %d: SteadyStateInto %v != SteadyState %v", i, dst[i], want[i])
		}
	}
	wantAvg, err := g.BlockAverage(want)
	if err != nil {
		t.Fatal(err)
	}
	avg := make([]float64, fp.NumBlocks())
	if err := g.BlockAverageInto(avg, dst); err != nil {
		t.Fatal(err)
	}
	for i := range wantAvg {
		if math.Float64bits(avg[i]) != math.Float64bits(wantAvg[i]) {
			t.Fatalf("block %d: BlockAverageInto %v != BlockAverage %v", i, avg[i], wantAvg[i])
		}
	}
	if err := g.SteadyStateInto(make([]float64, 3), p); err == nil {
		t.Error("SteadyStateInto accepted short dst")
	}
	if err := g.BlockAverageInto(make([]float64, 3), dst); err == nil {
		t.Error("BlockAverageInto accepted short dst")
	}
}

// TestGridSteadyStateIntoAllocationFree: after the first solve factors the
// conductance matrix, the grid steady-state path must stay off the heap —
// that, plus the sparse solve itself, is what makes per-step grid sweeps
// cheap (see BenchmarkGridThermal).
func TestGridSteadyStateIntoAllocationFree(t *testing.T) {
	g := newGrid(t, 16, 16)
	fp := floorplan.EV6()
	p := make([]float64, fp.NumBlocks())
	for i := range p {
		p[i] = 30 * fp.Block(i).Rect.Area() / fp.BlockArea()
	}
	dst := make([]float64, g.NumCells())
	avg := make([]float64, fp.NumBlocks())
	if err := g.SteadyStateInto(dst, p); err != nil { // warm the factorization
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := g.SteadyStateInto(dst, p); err != nil {
			t.Fatal(err)
		}
		if err := g.BlockAverageInto(avg, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("grid steady-state pipeline allocates %.1f times per call, want 0", allocs)
	}
}

// TestStepAllocationFree covers the transient entry points: once a step
// at a dt has factored its matrix, stepping the block model (backward
// Euler and RK4), reading its temperatures back and stepping the grid
// must all stay off the heap.
func TestStepAllocationFree(t *testing.T) {
	fp := floorplan.EV6()
	m, err := NewModel(fp, DefaultPackage())
	if err != nil {
		t.Fatal(err)
	}
	g := newGrid(t, 16, 16)
	p := make([]float64, fp.NumBlocks())
	for i := range p {
		p[i] = 30 * fp.Block(i).Rect.Area() / fp.BlockArea()
	}
	temps := m.BlockTemps(nil)
	const dt = 1e-4
	for name, step := range map[string]func() error{
		"Model.Step":    func() error { return m.Step(p, dt) },
		"Model.StepRK4": func() error { return m.StepRK4(p, dt) },
		"Model.BlockTemps": func() error {
			temps = m.BlockTemps(temps)
			return nil
		},
		"GridModel.Step": func() error { return g.Step(p, dt) },
	} {
		if err := step(); err != nil { // factor at this dt
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, allocs)
		}
	}
}

// TestModelSteadyStateIntoMatch does the same for the block model.
func TestModelSteadyStateIntoMatch(t *testing.T) {
	fp := floorplan.EV6()
	m, err := NewModel(fp, DefaultPackage())
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, fp.NumBlocks())
	for i := range p {
		p[i] = 35 * fp.Block(i).Rect.Area() / fp.BlockArea()
	}
	want, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, fp.NumBlocks())
	if err := m.SteadyStateInto(dst, p); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
			t.Fatalf("block %d: SteadyStateInto %v != SteadyState %v", i, dst[i], want[i])
		}
	}
	if err := m.SteadyStateInto(make([]float64, 2), p); err == nil {
		t.Error("SteadyStateInto accepted short dst")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := m.SteadyStateInto(dst, p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Model.SteadyStateInto allocates %.1f times per call, want 0", allocs)
	}
}
