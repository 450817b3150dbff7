package rc

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"hybriddtm/internal/stats"
)

// This file holds the test oracles. The one for the profile LDLᵀ is a
// textbook dense LU with partial pivoting. It shares nothing with the
// envelope factorization (no profile, no symmetry, a different elimination
// order), so agreement between the two within rounding is independent
// evidence that both solve the same system. The one for CSR assembly is
// fromTripletsOracle, which orders the triplets with the standard
// library's reflective stable sort; Finalize must reproduce its matrix bit
// for bit.

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

// fromTripletsOracle is the reference CSR assembly: a stable
// sort.SliceStable on (i, j), then one pass that merges equal pairs left to
// right, placing each row's diagonal before its first column above i.
func fromTripletsOracle(n int, off []cooEntry, diag []float64) *CSR {
	off = append([]cooEntry(nil), off...)
	sort.SliceStable(off, func(a, b int) bool {
		if off[a].i != off[b].i {
			return off[a].i < off[b].i
		}
		return off[a].j < off[b].j
	})
	m := &CSR{n: n, rowPtr: make([]int, n+1), diag: make([]int, n)}
	k := 0
	for i := 0; i < n; i++ {
		placedDiag := false
		for k < len(off) && off[k].i == i {
			j := off[k].j
			if !placedDiag && j > i {
				m.diag[i] = len(m.val)
				m.val = append(m.val, diag[i])
				m.colIdx = append(m.colIdx, i)
				placedDiag = true
			}
			s := off[k].v
			for k++; k < len(off) && off[k].i == i && off[k].j == j; k++ {
				s += off[k].v
			}
			m.val = append(m.val, s)
			m.colIdx = append(m.colIdx, j)
		}
		if !placedDiag {
			m.diag[i] = len(m.val)
			m.val = append(m.val, diag[i])
			m.colIdx = append(m.colIdx, i)
		}
		m.rowPtr[i+1] = len(m.val)
	}
	return m
}

// assemblyCase is one randomly assembled network together with the
// triplets and diagonal it held just before Finalize.
type assemblyCase struct {
	nw   *Network
	off  []cooEntry
	diag []float64
}

// randomAssembly builds a network of 1–300 nodes in an order chosen to
// stress the triplet ordering: a hub node wired to every other node, random
// extra edges, up to 4 parallel resistances per pair whose conductances span
// 2^0 to 2^50 (so the order in which duplicates are summed changes the
// bits), random call order and orientation, and one node whose edges are
// added in descending column order as a contiguous block.
func randomAssembly(rng *rand.Rand) assemblyCase {
	n := 1 + rng.Intn(300)
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = 0.01 + rng.Float64()
	}
	nw, err := NewNetwork(caps)
	if err != nil {
		panic(err)
	}
	type edge struct{ i, j int }
	var edges []edge
	parallel := func(i, j int) {
		for c := 1 + rng.Intn(4); c > 0; c-- {
			edges = append(edges, edge{i, j})
		}
	}
	hub := rng.Intn(n)
	for k := 0; k < n; k++ {
		if k != hub {
			parallel(hub, k)
		}
	}
	for e := rng.Intn(3 * n); e > 0; e-- {
		if i, j := rng.Intn(n), rng.Intn(n); i != j {
			parallel(i, j)
		}
	}
	rng.Shuffle(len(edges), func(a, b int) { edges[a], edges[b] = edges[b], edges[a] })
	for k := range edges {
		if rng.Intn(2) == 0 {
			edges[k].i, edges[k].j = edges[k].j, edges[k].i
		}
	}
	var reversed []edge
	row := rng.Intn(n)
	for j := n - 1; j >= 0; j-- {
		if j != row && rng.Intn(2) == 0 {
			reversed = append(reversed, edge{row, j})
		}
	}
	edges = slices.Insert(edges, rng.Intn(len(edges)+1), reversed...)
	for _, e := range edges {
		r := math.Ldexp(1+float64(rng.Intn(5))/5, -rng.Intn(51))
		if err := nw.AddResistance(e.i, e.j, r); err != nil {
			panic(err)
		}
	}
	if err := nw.AddToAmbient(rng.Intn(n), 0.5+rng.Float64()); err != nil {
		panic(err)
	}
	return assemblyCase{
		nw:   nw,
		off:  append([]cooEntry(nil), nw.off...),
		diag: append([]float64(nil), nw.diag...),
	}
}

// checkAssembly finalizes the case and requires its CSR to equal the
// oracle's: the same row pointers, column indices and diagonal slots, and
// every stored value bit for bit.
func checkAssembly(t *testing.T, c assemblyCase) {
	t.Helper()
	if err := c.nw.Finalize(); err != nil {
		t.Fatal(err)
	}
	got, want := c.nw.G(), fromTripletsOracle(len(c.diag), c.off, c.diag)
	if got.n != want.n || !slices.Equal(got.rowPtr, want.rowPtr) {
		t.Fatalf("n=%d: row pointers differ from the oracle's", want.n)
	}
	if !slices.Equal(got.colIdx, want.colIdx) {
		t.Fatalf("n=%d: column indices differ from the oracle's", want.n)
	}
	if !slices.Equal(got.diag, want.diag) {
		t.Fatalf("n=%d: diagonal slots differ from the oracle's", want.n)
	}
	for k := range want.val {
		if math.Float64bits(got.val[k]) != math.Float64bits(want.val[k]) {
			t.Fatalf("n=%d: val[%d] (column %d) = %v, oracle %v",
				want.n, k, want.colIdx[k], got.val[k], want.val[k])
		}
	}
}

// orderSensitive counts the (i, j) pairs whose duplicates sum to different
// bits in reverse insertion order, i.e. the pairs on which a merge in the
// wrong order would show.
func orderSensitive(off []cooEntry) int {
	sums := make(map[[2]int][2]float64) // insertion-order and reverse-order sums
	for k, e := range off {
		s := sums[[2]int{e.i, e.j}]
		s[0] += e.v
		sums[[2]int{e.i, e.j}] = s
		r := off[len(off)-1-k]
		s = sums[[2]int{r.i, r.j}]
		s[1] += r.v
		sums[[2]int{r.i, r.j}] = s
	}
	count := 0
	for _, s := range sums {
		if math.Float64bits(s[0]) != math.Float64bits(s[1]) {
			count++
		}
	}
	return count
}

// TestAssemblyOracle checks Finalize against the reference assembly on
// random networks, and that the cases include duplicate sums the merge
// order would change, so a merge in the wrong order cannot pass.
func TestAssemblyOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	sensitive := 0
	for trial := 0; trial < 200; trial++ {
		c := randomAssembly(rng)
		sensitive += orderSensitive(c.off)
		checkAssembly(t, c)
	}
	if sensitive == 0 {
		t.Fatal("no generated pair sums differently in reverse order; the cases cannot see the merge order")
	}
	t.Logf("%d pairs sum differently in reverse order", sensitive)
}

// FuzzAssembly is TestAssemblyOracle over fuzzer-chosen seeds.
func FuzzAssembly(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkAssembly(t, randomAssembly(rand.New(rand.NewSource(seed))))
	})
}
