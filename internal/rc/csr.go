package rc

import "sort"

// CSR is a compressed sparse row matrix: the standard row-pointer /
// column-index / value layout. HotSpot-class conductance matrices are
// structurally sparse — a grid cell couples only to its four lateral
// neighbours, the layer below, and ambient — so storing the nonzeros flat
// makes a matrix–vector product O(nnz) instead of O(n²) and keeps the whole
// matrix in a few contiguous slices that the stepping hot loop walks
// cache-linearly.
//
// Invariants: column indices are strictly ascending within each row, and
// every row carries an explicit diagonal entry (assembled conductance
// matrices always have one; an explicit slot keeps diagonal updates — the
// backward-Euler C/dt shift — index-free). Values are in W/K for
// conductance matrices, but CSR itself is unit-agnostic.
type CSR struct {
	n      int
	rowPtr []int     // len n+1: row i occupies [rowPtr[i], rowPtr[i+1])
	colIdx []int     // len nnz, ascending within each row
	val    []float64 // len nnz
	diag   []int     // len n: position of row i's diagonal entry in val
}

// NumRows returns the matrix dimension.
func (m *CSR) NumRows() int { return m.n }

// NumNonzeros returns the stored entry count (including explicit zeros).
func (m *CSR) NumNonzeros() int { return len(m.val) }

// At returns entry (i, j), zero when the position is not stored.
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	cols := m.colIdx[lo:hi]
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return m.val[lo+k]
	}
	return 0
}

// Diag returns the diagonal entry of row i.
func (m *CSR) Diag(i int) float64 { return m.val[m.diag[i]] }

// MatVecInto computes y = A x over the stored nonzeros. y must not alias x.
// Entries are accumulated in ascending column order, which makes the result
// bit-identical to a dense row-major product over the same matrix (skipped
// structural zeros contribute exact ±0 terms that cannot change a partial
// sum).
func (m *CSR) MatVecInto(y, x []float64) {
	for i := 0; i < m.n; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.val[k] * x[m.colIdx[k]]
		}
		y[i] = s
	}
}

// cooEntry is one off-diagonal contribution recorded during network
// assembly; duplicates (parallel resistances) are merged at Finalize in
// insertion order so the composed conductance is bit-identical to the old
// dense accumulate-in-place assembly.
type cooEntry struct {
	i, j int
	v    float64
}

// fromTriplets builds a CSR from off-diagonal COO triplets plus a dense
// diagonal vector. Triplets with equal (i, j) are summed in insertion
// order; diag supplies the (always present) diagonal entries. val and
// colIdx are sized up front for the worst case of no duplicates.
func fromTriplets(n int, off []cooEntry, diag []float64) *CSR {
	off = sortTriplets(n, off)
	m := &CSR{
		n:      n,
		rowPtr: make([]int, n+1),
		colIdx: make([]int, 0, len(off)+n),
		val:    make([]float64, 0, len(off)+n),
		diag:   make([]int, n),
	}
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

// sortTriplets returns a copy of off ordered by (i, j), with equal pairs
// kept in insertion order. A counting pass scatters the triplets by row,
// stably; an insertion sort then orders each row by column, also stably.
// Assembly appends a row's columns mostly in ascending order, so the
// insertion sort costs about one comparison per triplet: the whole pass is
// linear in the triplet count plus the rows' inversions.
func sortTriplets(n int, off []cooEntry) []cooEntry {
	next := make([]int, n+1)
	for _, e := range off {
		next[e.i+1]++
	}
	for i := 0; i < n; i++ {
		next[i+1] += next[i]
	}
	rows := make([]cooEntry, len(off))
	for _, e := range off {
		rows[next[e.i]] = e
		next[e.i]++
	}
	lo := 0
	for i := 0; i < n; i++ {
		row := rows[lo:next[i]]
		for a := 1; a < len(row); a++ {
			e, b := row[a], a
			for ; b > 0 && row[b-1].j > e.j; b-- {
				row[b] = row[b-1]
			}
			row[b] = e
		}
		lo = next[i]
	}
	return rows
}
