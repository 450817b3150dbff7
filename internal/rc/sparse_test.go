package rc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hybriddtm/internal/stats"
)

// gridNetwork builds a rows×cols thermal grid: lateral resistances between
// neighbours, every cell tied to ambient — the same stencil shape as the
// hotspot grid model, which is what the profile envelope is tuned for.
func gridNetwork(rows, cols int) *Network {
	n := rows * cols
	names := make([]string, n)
	caps := make([]float64, n)
	for i := range names {
		names[i] = "cell"
		caps[i] = 0.01 + 0.001*float64(i%13)
	}
	nw, err := NewNetwork(names, caps)
	if err != nil {
		panic(err)
	}
	idx := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := idx(r, c)
			if c+1 < cols {
				if err := nw.AddResistance(i, idx(r, c+1), 0.5+0.1*float64((r+c)%7)); err != nil {
					panic(err)
				}
			}
			if r+1 < rows {
				if err := nw.AddResistance(i, idx(r+1, c), 0.7+0.1*float64((r*c)%5)); err != nil {
					panic(err)
				}
			}
			if err := nw.AddToAmbient(i, 2+0.2*float64(i%3)); err != nil {
				panic(err)
			}
		}
	}
	if err := nw.Finalize(); err != nil {
		panic(err)
	}
	return nw
}

// closeTo reports the first element where got and want differ by more than
// tol.
func closeTo(what string, got, want []float64, tol float64) error {
	for i := range want {
		if !stats.ApproxEqual(got[i], want[i], tol) {
			return fmt.Errorf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// checkAgainstOracle cross-checks one network's CSR kernels against dense
// references: the derivative against a dense mat-vec, and the steady-state
// and backward-Euler solves against the dense LU oracle, all within tol.
func checkAgainstOracle(nw *Network, p, theta []float64, tol float64) error {
	n := nw.NumNodes()
	a := nw.G().Dense()
	gotD := make([]float64, n)
	nw.deriv(gotD, theta, p)
	wantD := matVec(a, theta)
	for i := range wantD {
		wantD[i] = (p[i] - wantD[i]) / nw.Capacitance(i)
	}
	if err := closeTo("deriv", gotD, wantD, tol); err != nil {
		return err
	}
	ss, err := nw.SteadyState(p)
	if err != nil {
		return err
	}
	wantSS, err := solveDense(a, p)
	if err != nil {
		return err
	}
	if err := closeTo("steady state", ss, wantSS, tol); err != nil {
		return err
	}
	const dt = 0.01
	for i := range a {
		a[i][i] += nw.Capacitance(i) / dt
	}
	be, err := factorDense(a)
	if err != nil {
		return err
	}
	th := append([]float64(nil), theta...)
	want := append([]float64(nil), theta...)
	rhs := make([]float64, n)
	for s := 0; s < 4; s++ {
		if err := nw.StepBE(th, p, dt); err != nil {
			return err
		}
		for i := range rhs {
			rhs[i] = nw.Capacitance(i)/dt*want[i] + p[i]
		}
		want = be.solve(rhs)
	}
	return closeTo("backward Euler", th, want, tol)
}

// randomLoad draws a power vector (W) and a temperature-rise state (K).
func randomLoad(rng *rand.Rand, n int) (p, theta []float64) {
	p = make([]float64, n)
	theta = make([]float64, n)
	for i := range p {
		p[i] = rng.Float64() * 3
		theta[i] = rng.Float64() * 20
	}
	return p, theta
}

// TestSparseDenseEquivalenceRandom cross-checks the CSR kernels and the
// profile LDLᵀ against the dense oracle within ApproxEqual, on grid-shaped
// networks (the banded envelope of the hotspot grid model) and on random
// SPD networks.
func TestSparseDenseEquivalenceRandom(t *testing.T) {
	const tol = 1e-9
	for _, tc := range []struct {
		name string
		nw   *Network
	}{
		{"grid16x16", gridNetwork(16, 16)},
		{"grid7x3", gridNetwork(7, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, theta := randomLoad(rand.New(rand.NewSource(42)), tc.nw.NumNodes())
			if err := checkAgainstOracle(tc.nw, p, theta, tol); err != nil {
				t.Error(err)
			}
		})
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nw := randomNetwork(rng)
		p, theta := randomLoad(rng, nw.NumNodes())
		if err := checkAgainstOracle(nw, p, theta, tol); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// FuzzSteadyState drives the steady-state solve with random networks and
// powers and checks it three independent ways: against the dense LU
// oracle, by its residual ‖Gθ − P‖∞ ≤ 1e-9·‖P‖∞, and against backward
// Euler at a step so long that it must land on the same steady state.
func FuzzSteadyState(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		const tol = 1e-9
		rng := rand.New(rand.NewSource(seed))
		nw := randomNetwork(rng)
		n := nw.NumNodes()
		p := make([]float64, n)
		for i := range p {
			p[i] = rng.Float64() * 10
		}
		ss, err := nw.SteadyState(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := solveDense(nw.G().Dense(), p)
		if err != nil {
			t.Fatal(err)
		}
		if err := closeTo("steady state", ss, want, tol); err != nil {
			t.Error(err)
		}
		g := make([]float64, n)
		nw.G().MatVecInto(g, ss)
		var res, pMax float64
		for i := range p {
			res = max(res, math.Abs(g[i]-p[i]))
			pMax = max(pMax, math.Abs(p[i]))
		}
		if res > tol*pMax {
			t.Errorf("residual ‖Gθ−P‖∞ = %g, want ≤ %g", res, tol*pMax)
		}
		th := make([]float64, n)
		if err := nw.StepBE(th, p, 1e15); err != nil {
			t.Fatal(err)
		}
		if err := closeTo("StepBE(dt=1e15)", th, ss, tol); err != nil {
			t.Error(err)
		}
	})
}

// TestCholeskyRejectsNonSPD pins the error contract: a symmetric but
// indefinite matrix must come back as *NotSPDError with an actionable
// message, not as garbage factors or a panic.
func TestCholeskyRejectsNonSPD(t *testing.T) {
	// Symmetric, eigenvalues 3 and −1: indefinite.
	a, err := FromDense([][]float64{{1, 2}, {2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = FactorCholesky(a, nil)
	if err == nil {
		t.Fatal("FactorCholesky accepted an indefinite matrix")
	}
	var nspd *NotSPDError
	if !errors.As(err, &nspd) {
		t.Fatalf("error type %T, want *NotSPDError (%v)", err, err)
	}
	if nspd.Pivot != 1 {
		t.Errorf("pivot index %d, want 1", nspd.Pivot)
	}
	if nspd.Value >= 0 {
		t.Errorf("reported pivot value %v, want negative", nspd.Value)
	}
	if msg := err.Error(); msg == "" {
		t.Error("empty error message")
	}
}

// TestFactorSingular: a singular matrix leaves a zero pivot, which the
// factorization rejects like any other non-SPD input.
func TestFactorSingular(t *testing.T) {
	a, err := FromDense([][]float64{{1, 2}, {2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	var nspd *NotSPDError
	if _, err := FactorCholesky(a, nil); !errors.As(err, &nspd) {
		t.Fatalf("FactorCholesky on a singular matrix: err %v, want *NotSPDError", err)
	}
}

func TestSolveWrongLength(t *testing.T) {
	a, err := FromDense([][]float64{{1}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := FactorCholesky(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1, 2}); err == nil {
		t.Error("Solve accepted wrong-length rhs")
	}
}

func TestSolveIntoAliasing(t *testing.T) {
	a, err := FromDense([][]float64{{2, -1}, {-1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := FactorCholesky(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 7}
	f.SolveInto(x, x) // aliased in/out must work
	if math.Abs(x[0]-11.0/7) > 1e-12 || math.Abs(x[1]-15.0/7) > 1e-12 {
		t.Errorf("aliased SolveInto = %v, want [11/7 15/7]", x)
	}
}

// TestCholeskyDiagShift: diagShift must act exactly like adding to the
// diagonal before factoring, bit for bit — backward Euler relies on it to
// factor C/dt + G without materializing the shifted matrix.
func TestCholeskyDiagShift(t *testing.T) {
	base := [][]float64{{4, -1, 0}, {-1, 3, -1}, {0, -1, 2}}
	shift := []float64{0.5, 1.5, 2.5}
	shifted := [][]float64{{4.5, -1, 0}, {-1, 4.5, -1}, {0, -1, 4.5}}
	ca, err := FromDense(base)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := FromDense(shifted)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := FactorCholesky(ca, shift)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := FactorCholesky(cb, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, 3}
	xa, err := fa.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	xb, err := fb.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xa {
		if math.Float64bits(xa[i]) != math.Float64bits(xb[i]) {
			t.Errorf("element %d: shift path %v != explicit path %v", i, xa[i], xb[i])
		}
	}
}

func TestCSRRoundTrip(t *testing.T) {
	a := [][]float64{
		{2, 0, -1, 0},
		{0, 3, 0, 0},
		{-1, 0, 4, -2},
		{0, 0, -2, 5},
	}
	m, err := FromDense(a)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows() != 4 {
		t.Fatalf("NumRows = %d, want 4", m.NumRows())
	}
	// Every row keeps an explicit diagonal even where other entries vanish.
	if got := m.NumNonzeros(); got != 8 {
		t.Fatalf("NumNonzeros = %d, want 8", got)
	}
	for i := range a {
		if m.Diag(i) != a[i][i] {
			t.Errorf("Diag(%d) = %v, want %v", i, m.Diag(i), a[i][i])
		}
		for j := range a[i] {
			if m.At(i, j) != a[i][j] {
				t.Errorf("At(%d,%d) = %v, want %v", i, j, m.At(i, j), a[i][j])
			}
		}
	}
	d := m.Dense()
	for i := range a {
		for j := range a[i] {
			if d[i][j] != a[i][j] {
				t.Errorf("Dense[%d][%d] = %v, want %v", i, j, d[i][j], a[i][j])
			}
		}
	}
	x := []float64{1, -2, 3, 0.5}
	y := make([]float64, 4)
	m.MatVecInto(y, x)
	want := matVec(a, x)
	for i := range y {
		if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
			t.Errorf("MatVec[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

// TestFromTripletsMergesInInsertionOrder pins the duplicate-merge order:
// parallel resistances must compose exactly like the old accumulate-in-place
// dense assembly, i.e. in AddResistance call order.
func TestFromTripletsMergesInInsertionOrder(t *testing.T) {
	// Values chosen so float addition order matters: (big + small) + small2
	// differs from big + (small + small2) at the ulp level.
	big, s1, s2 := 1e16, 1.0, 1.0
	off := []cooEntry{
		{i: 0, j: 1, v: big},
		{i: 1, j: 0, v: big},
		{i: 0, j: 1, v: s1},
		{i: 1, j: 0, v: s1},
		{i: 0, j: 1, v: s2},
		{i: 1, j: 0, v: s2},
	}
	m := fromTriplets(2, off, []float64{7, 9})
	want := big + s1 + s2 // left-to-right, insertion order
	if got := m.At(0, 1); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("merged value %v, want insertion-order sum %v", got, want)
	}
	if m.Diag(0) != 7 || m.Diag(1) != 9 {
		t.Errorf("diagonal = %v,%v, want 7,9", m.Diag(0), m.Diag(1))
	}
}

// TestBEFactorizationCacheKeying ensures the per-dt cache keys on the bit
// pattern, so two distinct representable step sizes get distinct factors.
func TestBEFactorizationCacheKeying(t *testing.T) {
	nw := gridNetwork(3, 3)
	if len(nw.beCache) != 0 {
		t.Fatalf("fresh network has %d cached factors", len(nw.beCache))
	}
	theta := make([]float64, nw.NumNodes())
	p := make([]float64, nw.NumNodes())
	p[0] = 1
	dt1 := 1e-3
	dt2 := math.Nextafter(dt1, 2) // adjacent representable value
	for _, dt := range []float64{dt1, dt1, dt2, dt1} {
		if err := nw.StepBE(theta, p, dt); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(nw.beCache); got != 2 {
		t.Errorf("cache holds %d factors after stepping at 2 distinct dts, want 2", got)
	}
	if _, ok := nw.beCache[math.Float64bits(dt1)]; !ok {
		t.Error("cache missing entry keyed by Float64bits(dt1)")
	}
	if _, ok := nw.beCache[math.Float64bits(dt2)]; !ok {
		t.Error("cache missing entry keyed by Float64bits(dt2)")
	}
}

// TestHotPathsAllocationFree verifies the zero-allocation contract of the
// stepping and solving hot paths once their factorizations are warm.
func TestHotPathsAllocationFree(t *testing.T) {
	nw := gridNetwork(8, 8)
	n := nw.NumNodes()
	p := make([]float64, n)
	theta := make([]float64, n)
	dst := make([]float64, n)
	for i := range p {
		p[i] = 0.2
	}
	// Warm the caches.
	if err := nw.SteadyStateInto(dst, p); err != nil {
		t.Fatal(err)
	}
	if err := nw.StepBE(theta, p, 1e-3); err != nil {
		t.Fatal(err)
	}
	if err := nw.StepRK4(theta, p, 1e-3); err != nil {
		t.Fatal(err)
	}
	checks := map[string]func(){
		"SteadyStateInto": func() { _ = nw.SteadyStateInto(dst, p) },
		"StepBE":          func() { _ = nw.StepBE(theta, p, 1e-3) },
		"StepRK4":         func() { _ = nw.StepRK4(theta, p, 1e-3) },
		"MatVecInto":      func() { nw.G().MatVecInto(dst, theta) },
	}
	for name, fn := range checks {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, allocs)
		}
	}
}

// TestSteadyStateIntoAliasing: dst may alias p, like Cholesky.SolveInto.
func TestSteadyStateIntoAliasing(t *testing.T) {
	nw := gridNetwork(4, 4)
	p := make([]float64, nw.NumNodes())
	for i := range p {
		p[i] = 0.1 * float64(i+1)
	}
	want, err := nw.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]float64(nil), p...)
	if err := nw.SteadyStateInto(buf, buf); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(buf[i]) != math.Float64bits(want[i]) {
			t.Errorf("aliased solve element %d: %v, want %v", i, buf[i], want[i])
		}
	}
}
