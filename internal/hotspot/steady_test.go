package hotspot

import (
	"math"
	"math/rand"
	"testing"

	"hybriddtm/internal/floorplan"
)

// TestSteadyStateOracle checks the transient integrators against the LDLᵀ
// steady state on the real models, under seeded random block powers:
//
//   - One backward-Euler step of dt = 1e15 s solves (C/dt + G)θ' = C/dt·θ + P,
//     which is Gθ' = P to rounding, whatever θ it starts from. From the
//     steady state of another power vector it must land on SteadyState
//     within 1e-9 of the largest rise over ambient, on the EV6 block model
//     and on a 16×16 grid.
//   - A steady state is a fixed point of the ODE, so one 1 ms StepRK4 from
//     the block model's Init state must move no node by more than 1e-9 K.
func TestSteadyStateOracle(t *testing.T) {
	const relTol, driftTol = 1e-9, 1e-9
	fp := floorplan.EV6()
	block := newEV6Model(t)
	grid := newGrid(t, 16, 16)
	ambient := block.Config().Ambient

	// relErr is max|got − want| over the largest rise of want over ambient.
	relErr := func(got, want []float64) float64 {
		var diff, rise float64
		for i := range want {
			diff = math.Max(diff, math.Abs(got[i]-want[i]))
			rise = math.Max(rise, want[i]-ambient)
		}
		return diff / rise
	}
	var worstBlock, worstGrid, worstDrift float64
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		power := func() []float64 {
			p := make([]float64, fp.NumBlocks())
			for i := range p {
				p[i] = 5 * rng.Float64()
			}
			return p
		}
		p0, p := power(), power()

		want, err := block.SteadyState(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := block.Init(p0); err != nil {
			t.Fatal(err)
		}
		if err := block.Step(p, 1e15); err != nil {
			t.Fatal(err)
		}
		worstBlock = math.Max(worstBlock, relErr(block.BlockTemps(nil), want))

		wantCells, err := grid.SteadyState(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := grid.Init(p0); err != nil {
			t.Fatal(err)
		}
		if err := grid.Step(p, 1e15); err != nil {
			t.Fatal(err)
		}
		worstGrid = math.Max(worstGrid, relErr(grid.CellTemps(nil), wantCells))

		if err := block.Init(p); err != nil {
			t.Fatal(err)
		}
		before := make([]float64, block.NumNodes())
		for i := range before {
			before[i] = block.NodeTemp(i)
		}
		if err := block.StepRK4(p, 1e-3); err != nil {
			t.Fatal(err)
		}
		for i, b := range before {
			worstDrift = math.Max(worstDrift, math.Abs(block.NodeTemp(i)-b))
		}
	}
	t.Logf("BE at dt=1e15 vs steady state: block %.2g, grid %.2g (relative); RK4 drift from Init %.2g K",
		worstBlock, worstGrid, worstDrift)
	if worstBlock > relTol {
		t.Errorf("block model: BE at dt=1e15 ends %.3g (relative) from the steady state, want ≤ %g", worstBlock, relTol)
	}
	if worstGrid > relTol {
		t.Errorf("16×16 grid: BE at dt=1e15 ends %.3g (relative) from the steady state, want ≤ %g", worstGrid, relTol)
	}
	if worstDrift > driftTol {
		t.Errorf("block model: 1 ms of RK4 from the steady state moved a node %.3g K, want ≤ %g K", worstDrift, driftTol)
	}
}
