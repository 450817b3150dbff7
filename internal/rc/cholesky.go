package rc

import (
	"fmt"
	"math"
)

// This file implements the one factorization behind backward Euler and the
// steady-state solve. The matrices are G and C/dt + G, both symmetric
// positive definite (G is a weighted graph Laplacian plus the positive
// ambient conductances; C/dt adds a strictly positive diagonal), so
// pivoting is unnecessary and a Cholesky-class factorization applies.
//
// We use the square-root-free (LDLᵀ) Cholesky variant over a symmetric
// *profile* (skyline) structure: row i stores only columns
// [prof[i], i), where prof[i] is the first nonzero column of the row, and
// the classic no-fill property of profile elimination guarantees the
// factor lives inside the same envelope. Only the strict lower triangle L
// (row by row) and the pivots D are stored; symmetry supplies Lᵀ. For a
// rows×cols thermal grid in row-major order the envelope is one grid
// bandwidth wide, so the factor costs O(n·w²) instead of O(n³) and each
// solve O(n·w) instead of O(n²).

// symbolic is the shared, values-free part of a profile factorization: the
// envelope shape. It depends only on the sparsity structure, so a Network
// computes it once and every per-dt backward-Euler factor reuses it.
type symbolic struct {
	n    int
	prof []int // first column of row i's envelope (prof[i] ≤ i)
	offs []int // len n+1: flat offset of row i's strictly-lower envelope
}

func newSymbolic(a *CSR) *symbolic {
	n := a.n
	s := &symbolic{n: n, prof: make([]int, n), offs: make([]int, n+1)}
	for i := 0; i < n; i++ {
		first := a.colIdx[a.rowPtr[i]] // rows are sorted and hold a diagonal
		if first > i {
			first = i
		}
		s.prof[i] = first
		s.offs[i+1] = s.offs[i] + i - first
	}
	return s
}

// row returns row i's strictly-lower envelope slice of a flat factor;
// element k holds column prof[i]+k.
func (s *symbolic) row(v []float64, i int) []float64 { return v[s.offs[i]:s.offs[i+1]] }

// Cholesky is a square-root-free (LDLᵀ) Cholesky factorization of a
// symmetric positive definite matrix over its profile envelope, for
// repeatedly solving A x = b. Factor with FactorCholesky (stand-alone) or
// through Network's solvers (shared symbolic structure). A factored
// Cholesky is read-only, so solves may run concurrently.
type Cholesky struct {
	sym  *symbolic
	low  []float64 // strict lower factor L, row-envelope order
	diag []float64 // pivots d_i (> 0 for SPD inputs)
}

// NotSPDError reports a factorization attempt on a matrix that is not
// symmetric positive definite: elimination hit a non-positive (or NaN)
// pivot. Thermal conductance matrices are SPD by construction, so this
// points at a malformed model (e.g. a negative resistance smuggled past
// validation) rather than a numerical edge case.
type NotSPDError struct {
	Pivot int
	Value float64
}

func (e *NotSPDError) Error() string {
	return fmt.Sprintf("rc: matrix is not positive definite: pivot %d is %v (want > 0); a thermal RC network needs positive resistances and capacitances and a path to ambient", e.Pivot, e.Value)
}

// newCholesky allocates a factorization shell over a shared symbolic
// structure.
func newCholesky(sym *symbolic) *Cholesky {
	return &Cholesky{
		sym:  sym,
		low:  make([]float64, sym.offs[sym.n]),
		diag: make([]float64, sym.n),
	}
}

// FactorCholesky computes the profile LDLᵀ factorization of a, which must
// be symmetric positive definite; diagShift, when non-nil, is added to the
// diagonal before factoring (the backward-Euler C/dt term). Only the lower
// triangle of a is read, and a is not modified. A *NotSPDError is returned
// for indefinite input.
func FactorCholesky(a *CSR, diagShift []float64) (*Cholesky, error) {
	c := newCholesky(newSymbolic(a))
	if err := c.factor(a, diagShift); err != nil {
		return nil, err
	}
	return c, nil
}

// factor loads the lower triangle of a (plus diagShift on the diagonal)
// into the envelope and factors it row by row in place.
func (c *Cholesky) factor(a *CSR, diagShift []float64) error {
	s := c.sym
	clear(c.low)
	for i := 0; i < s.n; i++ {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1] && a.colIdx[k] <= i; k++ {
			if j := a.colIdx[k]; j < i {
				c.low[s.offs[i]+j-s.prof[i]] = a.val[k]
			} else {
				c.diag[i] = a.val[k]
			}
		}
		if diagShift != nil {
			c.diag[i] += diagShift[i]
		}
	}

	for i := 0; i < s.n; i++ {
		pi := s.prof[i]
		ri := s.row(c.low, i)
		// u_ij = a_ij − Σ_k u_ik·l_jk over the overlap of rows i and j; the
		// entries left of j in ri still hold u, row j already holds L.
		for j := pi; j < i; j++ {
			pj := s.prof[j]
			k0 := max(pi, pj)
			ui := ri[k0-pi : j-pi]
			lj := s.row(c.low, j)[k0-pj : j-pj]
			sum := ri[j-pi]
			for k, u := range ui {
				sum -= u * lj[k]
			}
			ri[j-pi] = sum
		}
		// l_ij = u_ij/d_j and d_i = a_ii − Σ_j u_ij·l_ij.
		d := c.diag[i]
		for k, u := range ri {
			l := u / c.diag[pi+k]
			ri[k] = l
			d -= u * l
		}
		if math.IsNaN(d) || !(d > 0) {
			return &NotSPDError{Pivot: i, Value: d}
		}
		c.diag[i] = d
	}
	return nil
}

// Solve solves A x = b and returns x. b is not modified.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	if len(b) != c.sym.n {
		return nil, fmt.Errorf("rc: rhs length %d, want %d", len(b), c.sym.n)
	}
	x := make([]float64, c.sym.n)
	c.SolveInto(x, b)
	return x, nil
}

// SolveInto solves A x = b writing the result into x, allocation-free.
// x and b must both have length n; they may alias.
func (c *Cholesky) SolveInto(x, b []float64) {
	s := c.sym
	copy(x, b)
	// L y = b, forward by rows of L.
	for i := 1; i < s.n; i++ {
		xs := x[s.prof[i]:i]
		sum := x[i]
		for k, l := range s.row(c.low, i) {
			sum -= l * xs[k]
		}
		x[i] = sum
	}
	// D z = y.
	for i, d := range c.diag {
		x[i] /= d
	}
	// Lᵀ x = z, backward: once x_i is final, scatter it out of row i of L.
	for i := s.n - 1; i > 0; i-- {
		xi, xs := x[i], x[s.prof[i]:i]
		for k, l := range s.row(c.low, i) {
			xs[k] -= l * xi
		}
	}
}
