package hotspot

import (
	"fmt"
	"math"
	"testing"

	"hybriddtm/internal/floorplan"
	"hybriddtm/internal/rc"
)

// TestEnergyBalance is an oracle independent of any recorded output:
// summing backward Euler's rows, C(θ'−θ)/dt = P − Gθ', over all nodes
// cancels every lateral conductance, so each step must satisfy
//
//	Σ P·dt = ΔE_stored + dt·Σ g_amb,i·θ'ᵢ
//
// with E_stored = Σ Cᵢθᵢ (rc.Network.TotalEnergy). It is checked after
// every step of a 2× power step from steady state, for the EV6 block
// model and a 32×32 grid, at the simulator's thermal step (10 000 cycles
// at 3 GHz) and at 1e-4 s.
func TestEnergyBalance(t *testing.T) {
	const tol = 1e-7 // relative to Σ P·dt, per step
	fp := floorplan.EV6()
	p := make([]float64, fp.NumBlocks())
	for i := range p {
		p[i] = 1 + float64(i%5) // W, uneven so lateral flows matter
	}
	p2 := make([]float64, len(p))
	for i := range p {
		p2[i] = 2 * p[i]
	}

	type model struct {
		nw    *rc.Network
		theta []float64 // the model's own state, updated in place
		pFull []float64 // node powers of the last step
		init  func([]float64) error
		step  func([]float64, float64) error
	}
	block := func() model {
		m, err := NewModel(fp, DefaultPackage())
		if err != nil {
			t.Fatal(err)
		}
		return model{m.nw, m.theta, m.pFull, m.Init, m.Step}
	}
	grid := func() model {
		g, err := NewGridModel(fp, DefaultPackage(), 32, 32)
		if err != nil {
			t.Fatal(err)
		}
		return model{g.nw, g.theta, g.pFull, g.Init, g.Step}
	}

	for _, mk := range []struct {
		name string
		new  func() model
	}{{"block", block}, {"grid32", grid}} {
		for _, dt := range []float64{10_000 / 3e9, 1e-4} {
			t.Run(fmt.Sprintf("%s/dt=%g", mk.name, dt), func(t *testing.T) {
				m := mk.new()
				if err := m.init(p); err != nil {
					t.Fatal(err)
				}
				worst := 0.0
				for k := 0; k < 50; k++ {
					before := m.nw.TotalEnergy(m.theta)
					if err := m.step(p2, dt); err != nil {
						t.Fatal(err)
					}
					var in, out float64
					for i, pi := range m.pFull {
						in += pi * dt
						out += dt * m.nw.AmbientConductance(i) * m.theta[i]
					}
					stored := m.nw.TotalEnergy(m.theta) - before
					rel := math.Abs(in-stored-out) / in
					worst = math.Max(worst, rel)
					if rel > tol {
						t.Fatalf("step %d: Σ P·dt = %.12g J but ΔE = %.12g J and ambient outflow = %.12g J (relative residual %.3g > %g)",
							k, in, stored, out, rel, tol)
					}
				}
				t.Logf("worst relative residual %.3g", worst)
			})
		}
	}
}
