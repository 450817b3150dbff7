package rc

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// oneNode builds the simplest network: one node, capacitance c, resistance r
// to ambient. Its analytic step response to power p from θ=0 is
// θ(t) = p·r·(1 − e^{−t/(r·c)}).
func oneNode(t *testing.T, c, r float64) *Network {
	t.Helper()
	nw, err := NewNetwork([]float64{c})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.AddToAmbient(0, r); err != nil {
		t.Fatal(err)
	}
	if err := nw.Finalize(); err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestOneNodeAnalyticRK4(t *testing.T) {
	const c, r, p = 2.0, 3.0, 5.0
	nw := oneNode(t, c, r)
	theta := []float64{0}
	pow := []float64{p}
	tau := r * c
	total := 2 * tau
	const steps = 100
	dt := total / steps
	for i := 0; i < steps; i++ {
		if err := nw.StepRK4(theta, pow, dt); err != nil {
			t.Fatal(err)
		}
	}
	want := p * r * (1 - math.Exp(-total/tau))
	if math.Abs(theta[0]-want) > 1e-6*want {
		t.Errorf("RK4 θ(2τ) = %v, want %v", theta[0], want)
	}
}

func TestOneNodeAnalyticBE(t *testing.T) {
	const c, r, p = 2.0, 3.0, 5.0
	nw := oneNode(t, c, r)
	theta := []float64{0}
	pow := []float64{p}
	tau := r * c
	total := 2 * tau
	const steps = 2000 // BE is first order; needs finer steps for accuracy
	dt := total / steps
	for i := 0; i < steps; i++ {
		if err := nw.StepBE(theta, pow, dt); err != nil {
			t.Fatal(err)
		}
	}
	want := p * r * (1 - math.Exp(-total/tau))
	if math.Abs(theta[0]-want) > 2e-3*want {
		t.Errorf("BE θ(2τ) = %v, want %v (err %e)", theta[0], want, math.Abs(theta[0]-want)/want)
	}
}

func TestBEStableAtHugeStep(t *testing.T) {
	// Backward Euler with dt >> τ must land near steady state, not blow up.
	const c, r, p = 1.0, 2.0, 4.0
	nw := oneNode(t, c, r)
	theta := []float64{0}
	if err := nw.StepBE(theta, []float64{p}, 1000*r*c); err != nil {
		t.Fatal(err)
	}
	want := p * r
	if math.Abs(theta[0]-want) > 0.01*want {
		t.Errorf("BE huge step θ = %v, want ≈%v", theta[0], want)
	}
}

func TestSteadyStateTwoNode(t *testing.T) {
	// Node 0 -- r12 -- node 1 -- rAmb -- ambient. Power p only into node 0.
	// Steady state: all power flows through both resistances:
	// θ1 = p·rAmb, θ0 = p·(rAmb + r12).
	const p, r12, rAmb = 3.0, 0.5, 2.0
	nw, err := NewNetwork([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.AddResistance(0, 1, r12); err != nil {
		t.Fatal(err)
	}
	if err := nw.AddToAmbient(1, rAmb); err != nil {
		t.Fatal(err)
	}
	if err := nw.Finalize(); err != nil {
		t.Fatal(err)
	}
	th, err := nw.SteadyState([]float64{p, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(th[1]-p*rAmb) > 1e-10 {
		t.Errorf("θ1 = %v, want %v", th[1], p*rAmb)
	}
	if math.Abs(th[0]-p*(rAmb+r12)) > 1e-10 {
		t.Errorf("θ0 = %v, want %v", th[0], p*(rAmb+r12))
	}
}

func TestParallelResistancesCompose(t *testing.T) {
	nw, err := NewNetwork([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	// Two 2 K/W paths to ambient = 1 K/W total.
	if err := nw.AddToAmbient(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := nw.AddToAmbient(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := nw.Finalize(); err != nil {
		t.Fatal(err)
	}
	th, err := nw.SteadyState([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(th[0]-1) > 1e-12 {
		t.Errorf("θ = %v, want 1 (parallel composition)", th[0])
	}
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewNetwork(nil); err == nil {
		t.Error("NewNetwork accepted empty node list")
	}
	if _, err := NewNetwork([]float64{1, 0}); err == nil || !strings.Contains(err.Error(), "node 1 ") {
		t.Errorf("NewNetwork on zero capacitance at node 1: err = %v", err)
	}
	if _, err := NewNetwork([]float64{math.Inf(1)}); err == nil {
		t.Error("NewNetwork accepted infinite capacitance")
	}
	nw, _ := NewNetwork([]float64{1, 1})
	if err := nw.AddResistance(0, 0, 1); err == nil {
		t.Error("AddResistance accepted self loop")
	}
	if err := nw.AddResistance(0, 5, 1); err == nil {
		t.Error("AddResistance accepted bad index")
	}
	if err := nw.AddResistance(0, 1, 0); err == nil {
		t.Error("AddResistance accepted zero resistance")
	}
	if err := nw.AddResistance(0, 1, -1); err == nil {
		t.Error("AddResistance accepted negative resistance")
	}
	if err := nw.AddToAmbient(0, math.Inf(1)); err == nil {
		t.Error("AddToAmbient accepted infinite resistance")
	}
}

func TestFinalizeRequiresAmbient(t *testing.T) {
	nw, _ := NewNetwork([]float64{1, 1})
	if err := nw.AddResistance(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := nw.Finalize(); err == nil {
		t.Error("Finalize accepted network without ambient path")
	}
}

func TestFinalizeRequiresConnectivity(t *testing.T) {
	nw, _ := NewNetwork([]float64{1, 1})
	if err := nw.AddToAmbient(0, 1); err != nil {
		t.Fatal(err)
	}
	// Node b floats entirely: no resistance at all.
	if err := nw.Finalize(); err == nil {
		t.Error("Finalize accepted floating node")
	}
}

func TestTwoIslandsViaAmbientOK(t *testing.T) {
	// Two nodes each tied only to ambient: physically fine.
	nw, _ := NewNetwork([]float64{1, 1})
	if err := nw.AddToAmbient(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := nw.AddToAmbient(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := nw.Finalize(); err != nil {
		t.Errorf("Finalize rejected ambient-joined islands: %v", err)
	}
}

func TestNoMutationAfterFinalize(t *testing.T) {
	nw := oneNode(t, 1, 1)
	if err := nw.AddToAmbient(0, 1); err == nil {
		t.Error("AddToAmbient allowed after Finalize")
	}
	if err := nw.AddResistance(0, 0, 1); err == nil {
		t.Error("AddResistance allowed after Finalize")
	}
}

// randomNetwork builds a random connected RC network with one ambient path.
func randomNetwork(rng *rand.Rand) *Network {
	n := rng.Intn(10) + 2
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = 0.1 + rng.Float64()
	}
	nw, err := NewNetwork(caps)
	if err != nil {
		panic(err)
	}
	// Chain guarantees connectivity; extra random edges add richness.
	for i := 1; i < n; i++ {
		if err := nw.AddResistance(i-1, i, 0.1+rng.Float64()*5); err != nil {
			panic(err)
		}
	}
	for k := 0; k < n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			if err := nw.AddResistance(i, j, 0.1+rng.Float64()*5); err != nil {
				panic(err)
			}
		}
	}
	if err := nw.AddToAmbient(rng.Intn(n), 0.5+rng.Float64()*2); err != nil {
		panic(err)
	}
	if err := nw.Finalize(); err != nil {
		panic(err)
	}
	return nw
}

func TestConductanceMatrixProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nw := randomNetwork(rng)
		n := nw.NumNodes()
		for i := 0; i < n; i++ {
			// Diagonal dominance: G[i][i] ≥ Σ_j≠i |G[i][j]| (equality when
			// no ambient path at i).
			var off float64
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				if nw.Conductance(i, j) != nw.Conductance(j, i) {
					return false // symmetry
				}
				if nw.Conductance(i, j) > 0 {
					return false // off-diagonals must be ≤ 0
				}
				off += -nw.Conductance(i, j)
			}
			if nw.Conductance(i, i)+1e-12 < off {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSteadyStateIsFixedPoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nw := randomNetwork(rng)
		n := nw.NumNodes()
		p := make([]float64, n)
		for i := range p {
			p[i] = rng.Float64() * 10
		}
		th, err := nw.SteadyState(p)
		if err != nil {
			return false
		}
		// Stepping from steady state must not move (fixed point of the ODE).
		th2 := append([]float64(nil), th...)
		if err := nw.StepRK4(th2, p, 0.1); err != nil {
			return false
		}
		for i := range th {
			if math.Abs(th2[i]-th[i]) > 1e-6*(1+math.Abs(th[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCoolingIsMonotone(t *testing.T) {
	// With zero power, stored energy must decay monotonically for both
	// integrators (passivity of the RC network).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nw := randomNetwork(rng)
		n := nw.NumNodes()
		thRK := make([]float64, n)
		for i := range thRK {
			thRK[i] = rng.Float64() * 50
		}
		thBE := append([]float64(nil), thRK...)
		zero := make([]float64, n)
		prevRK := nw.TotalEnergy(thRK)
		prevBE := nw.TotalEnergy(thBE)
		for s := 0; s < 20; s++ {
			if err := nw.StepRK4(thRK, zero, 0.05); err != nil {
				return false
			}
			if err := nw.StepBE(thBE, zero, 0.05); err != nil {
				return false
			}
			eRK, eBE := nw.TotalEnergy(thRK), nw.TotalEnergy(thBE)
			if eRK > prevRK+1e-9 || eBE > prevBE+1e-9 {
				return false
			}
			prevRK, prevBE = eRK, eBE
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRK4AndBEAgree(t *testing.T) {
	// Both integrators must converge to the same trajectory when BE uses a
	// fine enough step.
	rng := rand.New(rand.NewSource(42))
	nw := randomNetwork(rng)
	n := nw.NumNodes()
	p := make([]float64, n)
	for i := range p {
		p[i] = rng.Float64() * 5
	}
	thRK := make([]float64, n)
	thBE := make([]float64, n)
	total := 1.0
	if err := nw.StepRK4(thRK, p, total); err != nil {
		t.Fatal(err)
	}
	const fine = 5000
	for s := 0; s < fine; s++ {
		if err := nw.StepBE(thBE, p, total/fine); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if math.Abs(thRK[i]-thBE[i]) > 1e-2*(1+math.Abs(thRK[i])) {
			t.Errorf("node %d: RK4 %v vs BE %v", i, thRK[i], thBE[i])
		}
	}
}

func TestLongRunConvergesToSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw := randomNetwork(rng)
	n := nw.NumNodes()
	p := make([]float64, n)
	for i := range p {
		p[i] = 1 + rng.Float64()*5
	}
	ss, err := nw.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	th := make([]float64, n)
	for s := 0; s < 400; s++ {
		if err := nw.StepBE(th, p, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	for i := range th {
		if math.Abs(th[i]-ss[i]) > 1e-3*(1+math.Abs(ss[i])) {
			t.Errorf("node %d: transient %v did not converge to steady %v", i, th[i], ss[i])
		}
	}
}

func TestStepErrors(t *testing.T) {
	nw := oneNode(t, 1, 1)
	if err := nw.StepRK4([]float64{0}, []float64{0}, -1); err == nil {
		t.Error("StepRK4 accepted negative dt")
	}
	if err := nw.StepBE([]float64{0}, []float64{0}, 0); err == nil {
		t.Error("StepBE accepted zero dt")
	}
	if err := nw.StepRK4([]float64{0, 0}, []float64{0}, 1); err == nil {
		t.Error("StepRK4 accepted mismatched state")
	}
	nw2, _ := NewNetwork([]float64{1})
	_ = nw2.AddToAmbient(0, 1)
	if err := nw2.StepRK4([]float64{0}, []float64{0}, 1); err == nil {
		t.Error("StepRK4 allowed before Finalize")
	}
	if _, err := nw2.SteadyState([]float64{0}); err == nil {
		t.Error("SteadyState allowed before Finalize")
	}
}
