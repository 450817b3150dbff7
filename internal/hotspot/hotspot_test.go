package hotspot

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hybriddtm/internal/floorplan"
	"hybriddtm/internal/geom"
)

func newEV6Model(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel(floorplan.EV6(), DefaultPackage())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// uniformPower spreads total watts over blocks proportional to area.
func uniformPower(m *Model, total float64) []float64 {
	fp := m.Floorplan()
	dieArea := fp.BlockArea()
	p := make([]float64, m.NumBlocks())
	for i := range p {
		p[i] = total * fp.Block(i).Rect.Area() / dieArea
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	good := DefaultPackage()
	if err := good.Validate(); err != nil {
		t.Fatalf("default package invalid: %v", err)
	}
	bad := good
	bad.DieThickness = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero die thickness")
	}
	bad = good
	bad.SinkSide = good.SpreaderSide / 2
	if err := bad.Validate(); err == nil {
		t.Error("accepted sink smaller than spreader")
	}
	bad = good
	bad.RConvection = -1
	if err := bad.Validate(); err == nil {
		t.Error("accepted negative convection resistance")
	}
}

func TestNewModelRejectsHugeDie(t *testing.T) {
	cfg := DefaultPackage()
	cfg.SpreaderSide = 10e-3 // smaller than the 16mm EV6 die
	cfg.SinkSide = 20e-3
	if _, err := NewModel(floorplan.EV6(), cfg); err == nil {
		t.Error("NewModel accepted die larger than spreader")
	}
}

func TestZeroPowerIsAmbient(t *testing.T) {
	m := newEV6Model(t)
	p := make([]float64, m.NumBlocks())
	temps, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, temp := range temps {
		if math.Abs(temp-m.Config().Ambient) > 1e-9 {
			t.Errorf("block %s at %v °C with zero power, want ambient %v",
				m.Floorplan().Block(i).Name, temp, m.Config().Ambient)
		}
	}
}

func TestTotalResistanceMatchesConvection(t *testing.T) {
	// In steady state with total power P, the sink must sit at
	// ambient + P·RConvection (all heat leaves through the convection
	// resistance). This pins the convection-splitting arithmetic.
	m := newEV6Model(t)
	const total = 30.0
	if err := m.Init(uniformPower(m, total)); err != nil {
		t.Fatal(err)
	}
	wantSink := m.Config().Ambient + total*m.Config().RConvection
	// The sink center is slightly hotter than the area-weighted average of
	// the five sink nodes, so allow a few degrees of spread.
	if got := m.SinkTemp(); math.Abs(got-wantSink) > 3 {
		t.Errorf("sink temp %v, want ≈%v", got, wantSink)
	}
}

func TestHotterBlockForMorePower(t *testing.T) {
	m := newEV6Model(t)
	fp := m.Floorplan()
	p := uniformPower(m, 20)
	intReg := fp.Index(floorplan.IntReg)
	p[intReg] += 2 // extra 2W into the register file
	temps, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	// IntReg must now be the hottest block.
	for i, temp := range temps {
		if i != intReg && temp >= temps[intReg] {
			t.Errorf("block %s (%v°C) at least as hot as boosted IntReg (%v°C)",
				m.Floorplan().Block(i).Name, temp, temps[intReg])
		}
	}
}

func TestMonotoneInPower(t *testing.T) {
	// More total power ⇒ every steady-state block temperature is at least
	// as high (the network is a passive linear system with positive inverse).
	m := newEV6Model(t)
	lo, err := m.SteadyState(uniformPower(m, 10))
	if err != nil {
		t.Fatal(err)
	}
	hi, err := m.SteadyState(uniformPower(m, 20))
	if err != nil {
		t.Fatal(err)
	}
	for i := range lo {
		if hi[i] < lo[i]-1e-9 {
			t.Errorf("block %s cooler (%v) at higher power than lower (%v)",
				m.Floorplan().Block(i).Name, hi[i], lo[i])
		}
	}
}

func TestSuperposition(t *testing.T) {
	// The RC network is linear: T(p1+p2) − ambient = (T(p1)−amb) + (T(p2)−amb).
	m := newEV6Model(t)
	amb := m.Config().Ambient
	p1 := uniformPower(m, 12)
	p2 := make([]float64, m.NumBlocks())
	p2[m.Floorplan().Index(floorplan.IntExec)] = 3
	sum := make([]float64, len(p1))
	for i := range sum {
		sum[i] = p1[i] + p2[i]
	}
	t1, err := m.SteadyState(p1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := m.SteadyState(p2)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := m.SteadyState(sum)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ts {
		want := (t1[i] - amb) + (t2[i] - amb) + amb
		if math.Abs(ts[i]-want) > 1e-6 {
			t.Errorf("block %d: superposition violated: %v vs %v", i, ts[i], want)
		}
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	m := newEV6Model(t)
	p := uniformPower(m, 25)
	want, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	ambient := m.Config().Ambient
	m.InitUniform(ambient)
	for i, v := range m.BlockTemps(nil) {
		if math.Abs(v-ambient) > 1e-9 {
			t.Fatalf("block %s starts at %v °C, want the ambient %v °C", m.Floorplan().Block(i).Name, v, ambient)
		}
	}
	// Die time constants are ms-scale but the sink takes ~100s; run a long
	// coarse transient (BE is unconditionally stable, so big steps are fine).
	for i := 0; i < 5000; i++ {
		if err := m.Step(p, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	got := m.BlockTemps(nil)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 0.05 {
			t.Errorf("block %s: transient %v, steady %v", m.Floorplan().Block(i).Name, got[i], want[i])
		}
	}
}

func TestInitMatchesSteadyState(t *testing.T) {
	m := newEV6Model(t)
	p := uniformPower(m, 25)
	want, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Init(p); err != nil {
		t.Fatal(err)
	}
	got := m.BlockTemps(nil)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("block %d: Init %v != SteadyState %v", i, got[i], want[i])
		}
	}
	// Stepping from steady state with the same power must not move.
	if err := m.Step(p, 1e-3); err != nil {
		t.Fatal(err)
	}
	after := m.BlockTemps(nil)
	for i := range after {
		if math.Abs(after[i]-want[i]) > 1e-6 {
			t.Errorf("block %d drifted from steady state: %v -> %v", i, want[i], after[i])
		}
	}
}

func TestSiliconRespondsInMilliseconds(t *testing.T) {
	// The paper: "temperature changes in the silicon take place as fast as
	// 0.1 °C/ms". A power step into one block must move that block's
	// temperature by a measurable amount within 1 ms while the sink barely
	// moves.
	m := newEV6Model(t)
	base := uniformPower(m, 25)
	if err := m.Init(base); err != nil {
		t.Fatal(err)
	}
	intReg := m.Floorplan().Index(floorplan.IntReg)
	before := m.BlockTemps(nil)[intReg]
	sinkBefore := m.SinkTemp()
	boosted := append([]float64(nil), base...)
	boosted[intReg] += 3
	for i := 0; i < 10; i++ {
		if err := m.Step(boosted, 1e-4); err != nil { // 1 ms total
			t.Fatal(err)
		}
	}
	after := m.BlockTemps(nil)[intReg]
	if after-before < 0.1 {
		t.Errorf("IntReg moved only %v °C in 1ms after +3W step; expected ≥0.1", after-before)
	}
	if ds := math.Abs(m.SinkTemp() - sinkBefore); ds > 0.01 {
		t.Errorf("sink moved %v °C in 1ms; expected quasi-static", ds)
	}
}

func TestBEMatchesRK4OnTransient(t *testing.T) {
	fp := floorplan.EV6()
	cfg := DefaultPackage()
	mBE, err := NewModel(fp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mRK, err := NewModel(fp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := uniformPower(mBE, 30)
	mBE.InitUniform(60)
	mRK.InitUniform(60)
	// Fine BE steps vs RK4 over 10 ms.
	const total, steps = 10e-3, 1000
	for i := 0; i < steps; i++ {
		if err := mBE.Step(p, total/steps); err != nil {
			t.Fatal(err)
		}
	}
	if err := mRK.StepRK4(p, total); err != nil {
		t.Fatal(err)
	}
	tBE := mBE.BlockTemps(nil)
	tRK := mRK.BlockTemps(nil)
	for i := range tBE {
		if math.Abs(tBE[i]-tRK[i]) > 0.05 {
			t.Errorf("block %s: BE %v vs RK4 %v", mBE.Floorplan().Block(i).Name, tBE[i], tRK[i])
		}
	}
}

// TestThermalStepConverged checks the paper's 10 000-cycle thermal step:
// heating the die from 60 °C under 30 W for 5 ms, the hottest block ends
// within 0.1 °C of a 10× finer reference (−1.0e-4 °C when this test was
// written).
func TestThermalStepConverged(t *testing.T) {
	maxTempAfter := func(stepCycles float64) float64 {
		m := newEV6Model(t)
		p := uniformPower(m, 30)
		m.InitUniform(60)
		dt := stepCycles / 3e9
		for tm := 0.0; tm < 5e-3; tm += dt {
			if err := m.Step(p, dt); err != nil {
				t.Fatal(err)
			}
		}
		_, maxT := m.MaxBlockTemp()
		return maxT
	}
	coarse, fine := maxTempAfter(10_000), maxTempAfter(1_000)
	if d := coarse - fine; math.Abs(d) >= 0.1 {
		t.Errorf("10 000-cycle step ends %.3g °C from the 1 000-cycle reference (%.4f vs %.4f °C), want < 0.1 °C",
			d, coarse, fine)
	}
}

func TestMaxBlockTemp(t *testing.T) {
	m := newEV6Model(t)
	p := make([]float64, m.NumBlocks())
	idx := m.Floorplan().Index(floorplan.FPMul)
	p[idx] = 5
	if err := m.Init(p); err != nil {
		t.Fatal(err)
	}
	got, temp := m.MaxBlockTemp()
	if got != idx {
		t.Errorf("MaxBlockTemp index = %s, want %s", m.Floorplan().Block(got).Name, floorplan.FPMul)
	}
	if temp <= m.Config().Ambient {
		t.Errorf("hottest block %v not above ambient", temp)
	}
}

func TestStepTime(t *testing.T) {
	m := newEV6Model(t)
	p := make([]float64, m.NumBlocks())
	if err := m.Init(p); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := m.Step(p, 2e-3); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(m.Time()-10e-3) > 1e-12 {
		t.Errorf("Time = %v, want 10ms", m.Time())
	}
	if err := m.Init(p); err != nil {
		t.Fatal(err)
	}
	if m.Time() != 0 {
		t.Errorf("Init did not reset time: %v", m.Time())
	}
}

func TestPowerVectorLengthChecked(t *testing.T) {
	m := newEV6Model(t)
	if err := m.Init(make([]float64, 3)); err == nil {
		t.Error("Init accepted wrong-length power vector")
	}
	if err := m.Step(make([]float64, 3), 1e-3); err == nil {
		t.Error("Step accepted wrong-length power vector")
	}
	if _, err := m.SteadyState(make([]float64, 3)); err == nil {
		t.Error("SteadyState accepted wrong-length power vector")
	}
}

func TestLateralCouplingHeatsNeighbours(t *testing.T) {
	// Power in IntExec alone must heat adjacent IntReg above what a distant
	// block (FPMap) sees.
	m := newEV6Model(t)
	fp := m.Floorplan()
	p := make([]float64, m.NumBlocks())
	p[fp.Index(floorplan.IntExec)] = 8
	temps, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	amb := m.Config().Ambient
	neighbour := temps[fp.Index(floorplan.IntReg)] - amb
	distant := temps[fp.Index(floorplan.FPMap)] - amb
	if neighbour <= distant {
		t.Errorf("adjacent IntReg rise %v not above distant FPMap rise %v", neighbour, distant)
	}
}

func TestShiftBlocks(t *testing.T) {
	m := newEV6Model(t)
	p := uniformPower(m, 30)
	if err := m.Init(p); err != nil {
		t.Fatal(err)
	}
	before := m.BlockTemps(nil)
	sinkBefore := m.SinkTemp()
	m.ShiftBlocks(-3)
	after := m.BlockTemps(nil)
	for i := range after {
		if math.Abs(after[i]-(before[i]-3)) > 1e-12 {
			t.Errorf("block %d: %v, want %v", i, after[i], before[i]-3)
		}
	}
	if m.SinkTemp() != sinkBefore {
		t.Error("ShiftBlocks moved the sink")
	}
	// The shifted state relaxes back toward the steady state when stepped
	// with the same power.
	for i := 0; i < 50; i++ {
		if err := m.Step(p, 1e-3); err != nil {
			t.Fatal(err)
		}
	}
	relaxed := m.BlockTemps(nil)
	for i := range relaxed {
		if math.Abs(relaxed[i]-before[i]) > 0.5 {
			t.Errorf("block %d did not relax: %v vs steady %v", i, relaxed[i], before[i])
		}
	}
}

// guillotineRects recursively splits a rectangle into n tiles (valid,
// gap-free by construction) for property tests over arbitrary floorplans.
func guillotineRects(rng *rand.Rand, r geom.Rect, n int, out *[]geom.Rect) {
	if n == 1 {
		*out = append(*out, r)
		return
	}
	nLeft := 1 + rng.Intn(n-1)
	frac := 0.3 + 0.4*rng.Float64()
	if r.W >= r.H {
		w := r.W * frac
		guillotineRects(rng, geom.Rect{X: r.X, Y: r.Y, W: w, H: r.H}, nLeft, out)
		guillotineRects(rng, geom.Rect{X: r.X + w, Y: r.Y, W: r.W - w, H: r.H}, n-nLeft, out)
	} else {
		h := r.H * frac
		guillotineRects(rng, geom.Rect{X: r.X, Y: r.Y, W: r.W, H: h}, nLeft, out)
		guillotineRects(rng, geom.Rect{X: r.X, Y: r.Y + h, W: r.W, H: r.H - h}, n-nLeft, out)
	}
}

// TestArbitraryFloorplansBehavePhysically builds thermal models over random
// valid tilings and checks the basic physics on each: zero power sits at
// ambient, temperatures rise monotonically with power, and the steady state
// is a fixed point of the transient.
func TestArbitraryFloorplansBehavePhysically(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		var rects []geom.Rect
		guillotineRects(rng, geom.Rect{X: 0, Y: 0, W: 12e-3, H: 12e-3}, n, &rects)
		blocks := make([]floorplan.Block, n)
		for i, r := range rects {
			blocks[i] = floorplan.Block{Name: fmt.Sprintf("b%d", i), Rect: r}
		}
		fp, err := floorplan.New(blocks)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m, err := NewModel(fp, DefaultPackage())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		amb := DefaultPackage().Ambient
		zero, err := m.SteadyState(make([]float64, n))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p := make([]float64, n)
		for i := range p {
			p[i] = rng.Float64() * 4
		}
		hot, err := m.SteadyState(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := 0; i < n; i++ {
			if math.Abs(zero[i]-amb) > 1e-9 {
				t.Fatalf("seed %d: zero-power temp %v != ambient", seed, zero[i])
			}
			if hot[i] < amb-1e-9 {
				t.Fatalf("seed %d: powered block below ambient: %v", seed, hot[i])
			}
		}
		if err := m.Init(p); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		before := m.BlockTemps(nil)
		if err := m.Step(p, 1e-3); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		after := m.BlockTemps(nil)
		for i := range after {
			if math.Abs(after[i]-before[i]) > 1e-6 {
				t.Fatalf("seed %d: steady state not a fixed point: %v -> %v",
					seed, before[i], after[i])
			}
		}
	}
}
