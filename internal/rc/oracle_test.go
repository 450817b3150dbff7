package rc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hybriddtm/internal/stats"
)

// This file holds the test oracle for the profile LDLᵀ: a textbook dense LU
// with partial pivoting. It shares nothing with the envelope factorization
// (no profile, no symmetry, a different elimination order), so agreement
// between the two within rounding is independent evidence that both solve
// the same system.

// denseLU is an LU factorization with partial pivoting of a dense square
// matrix: combined unit-lower L and upper U, plus the row permutation.
type denseLU struct {
	lu  [][]float64
	piv []int
}

// factorDense factors a copy of a; it fails on a singular matrix.
func factorDense(a [][]float64) (*denseLU, error) {
	n := len(a)
	lu := make([][]float64, n)
	for i := range lu {
		lu[i] = append([]float64(nil), a[i]...)
	}
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		p, maxv := k, math.Abs(lu[k][k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu[i][k]); v > maxv {
				p, maxv = i, v
			}
		}
		if stats.SameFloat(maxv, 0) || math.IsNaN(maxv) {
			return nil, fmt.Errorf("singular matrix at pivot %d", k)
		}
		lu[p], lu[k] = lu[k], lu[p]
		piv[p], piv[k] = piv[k], piv[p]
		for i := k + 1; i < n; i++ {
			m := lu[i][k] / lu[k][k]
			lu[i][k] = m
			for j := k + 1; j < n; j++ {
				lu[i][j] -= m * lu[k][j]
			}
		}
	}
	return &denseLU{lu: lu, piv: piv}, nil
}

// solve returns x with A x = b.
func (f *denseLU) solve(b []float64) []float64 {
	n := len(b)
	x := make([]float64, n)
	for i := range x {
		x[i] = b[f.piv[i]]
	}
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			x[i] -= f.lu[i][j] * x[j]
		}
	}
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= f.lu[i][j] * x[j]
		}
		x[i] /= f.lu[i][i]
	}
	return x
}

// solveDense factors a and solves a single system.
func solveDense(a [][]float64, b []float64) ([]float64, error) {
	f, err := factorDense(a)
	if err != nil {
		return nil, err
	}
	return f.solve(b), nil
}

// matVec computes y = A x for a dense matrix.
func matVec(a [][]float64, x []float64) []float64 {
	y := make([]float64, len(a))
	for i, row := range a {
		for j, v := range row {
			y[i] += v * x[j]
		}
	}
	return y
}

// Dense materializes the matrix as a dense ragged [][]float64, the format
// of the oracle.
func (m *CSR) Dense() [][]float64 {
	a := make([][]float64, m.n)
	for i := range a {
		a[i] = make([]float64, m.n)
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			a[i][m.colIdx[k]] = m.val[k]
		}
	}
	return a
}

// FromDense lowers a dense square matrix into CSR form, keeping every
// structurally needed entry: nonzeros, plus an explicit diagonal slot per
// row even when the diagonal is zero.
func FromDense(a [][]float64) (*CSR, error) {
	n := len(a)
	if n == 0 {
		return nil, fmt.Errorf("rc: empty matrix")
	}
	m := &CSR{n: n, rowPtr: make([]int, n+1), diag: make([]int, n)}
	for i, row := range a {
		if len(row) != n {
			return nil, fmt.Errorf("rc: matrix not square: row %d has %d cols, want %d", i, len(row), n)
		}
		for j, v := range row {
			if j == i {
				m.diag[i] = len(m.val)
				m.val = append(m.val, v)
				m.colIdx = append(m.colIdx, j)
				continue
			}
			if !stats.SameFloat(v, 0) {
				m.val = append(m.val, v)
				m.colIdx = append(m.colIdx, j)
			}
		}
		m.rowPtr[i+1] = len(m.val)
	}
	return m, nil
}

// The oracle's own checks: known answers, pivoting, and round trips.

func TestFactorSolveKnown(t *testing.T) {
	a := [][]float64{
		{2, 1, 0},
		{1, 3, 1},
		{0, 1, 2},
	}
	x, err := solveDense(a, []float64{3, 5, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 1, 1} {
		if math.Abs(x[i]-want) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want)
		}
	}
}

func TestFactorNeedsPivoting(t *testing.T) {
	// Zero leading pivot: fails without partial pivoting.
	x, err := solveDense([][]float64{{0, 1}, {1, 0}}, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestSolveReusesFactorization(t *testing.T) {
	a := [][]float64{
		{4, 1},
		{1, 3},
	}
	f, err := factorDense(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]float64{{5, 4}, {1, 0}, {0, 1}} {
		ax := matVec(a, f.solve(b))
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-10 {
				t.Errorf("residual for b=%v: Ax=%v", b, ax)
			}
		}
	}
}

// TestSolveRandomSPD checks A x = b round trips on random diagonally
// dominant matrices (the class produced by RC networks).
func TestSolveRandomSPD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 2
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				c := rng.Float64()
				a[i][j] = -c
				a[j][i] = -c
				a[i][i] += c
				a[j][j] += c
			}
			a[i][i] += 0.1 + rng.Float64() // ambient-like term keeps it nonsingular
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := solveDense(a, b)
		if err != nil {
			return false
		}
		ax := matVec(a, x)
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMatVec(t *testing.T) {
	y := matVec([][]float64{{1, 2}, {3, 4}}, []float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Errorf("matVec = %v, want [3 7]", y)
	}
}
