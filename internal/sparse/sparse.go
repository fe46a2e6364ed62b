// Package sparse provides the sparse-matrix substrate used by the graph and
// solver layers: a COO builder, an immutable CSR matrix with fast
// matrix-vector products, and the conjugate-gradient solvers (plain and
// preconditioned) for the symmetric positive definite systems that arise
// from graph Laplacians.
package sparse

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/mat"
	"repro/internal/parallel"
)

var (
	// ErrShape is returned when operand dimensions are incompatible.
	ErrShape = errors.New("sparse: dimension mismatch")
	// ErrNotConverged is returned when an iterative solver exhausts its
	// iteration budget.
	ErrNotConverged = errors.New("sparse: iteration did not converge")
	// ErrIndex is returned for out-of-range coordinates.
	ErrIndex = errors.New("sparse: index out of range")
)

// COO is a coordinate-format builder for sparse matrices. Duplicate entries
// are summed when converting to CSR, in the order they were added, so a
// stream and its mirror image (AddSym) give bitwise-equal mirrored sums.
type COO struct {
	rows, cols int
	ri, ci     []int
	v          []float64
}

// NewCOO returns an empty r-by-c COO builder.
func NewCOO(r, c int) *COO {
	return &COO{rows: r, cols: c}
}

// Rows returns the number of rows.
func (a *COO) Rows() int { return a.rows }

// Cols returns the number of columns.
func (a *COO) Cols() int { return a.cols }

// NNZ returns the number of stored entries (duplicates counted separately).
func (a *COO) NNZ() int { return len(a.v) }

// Add appends the entry (i, j, v). Zero values are skipped.
func (a *COO) Add(i, j int, v float64) error {
	if i < 0 || i >= a.rows || j < 0 || j >= a.cols {
		return fmt.Errorf("sparse: Add(%d,%d) outside %dx%d: %w", i, j, a.rows, a.cols, ErrIndex)
	}
	if v == 0 {
		return nil
	}
	a.ri = append(a.ri, i)
	a.ci = append(a.ci, j)
	a.v = append(a.v, v)
	return nil
}

// AddSym appends (i, j, v) and, when i != j, (j, i, v).
func (a *COO) AddSym(i, j int, v float64) error {
	if err := a.Add(i, j, v); err != nil {
		return err
	}
	if i != j {
		return a.Add(j, i, v)
	}
	return nil
}

// ToCSR compiles the builder into an immutable CSR matrix, summing duplicate
// coordinates left to right in insertion order. A stable counting sort
// groups the entries by row in O(nnz + rows); only a row whose columns were
// added out of order then gets a stable sort by column.
func (a *COO) ToCSR() *CSR {
	nnz := len(a.v)
	indptr := make([]int, a.rows+1)
	for _, r := range a.ri {
		indptr[r+1]++
	}
	for i := 0; i < a.rows; i++ {
		indptr[i+1] += indptr[i]
	}
	next := make([]int, a.rows)
	copy(next, indptr)
	indices := make([]int, nnz)
	data := make([]float64, nnz)
	for k, r := range a.ri {
		p := next[r]
		indices[p], data[p] = a.ci[k], a.v[k]
		next[r]++
	}

	// Sort each row by column where needed and merge duplicates in place;
	// indptr[i+1] is rewritten to the merged end once row i is read.
	var row []entry
	at, lo := 0, 0
	for i := 0; i < a.rows; i++ {
		hi := indptr[i+1]
		if !slices.IsSorted(indices[lo:hi]) {
			row = row[:0]
			for k := lo; k < hi; k++ {
				row = append(row, entry{col: indices[k], v: data[k]})
			}
			slices.SortStableFunc(row, cmpCol)
			for k, e := range row {
				indices[lo+k], data[lo+k] = e.col, e.v
			}
		}
		for k := lo; k < hi; k++ {
			if k > lo && indices[k] == indices[at-1] {
				data[at-1] += data[k]
				continue
			}
			indices[at], data[at] = indices[k], data[k]
			at++
		}
		indptr[i+1] = at
		lo = hi
	}
	return &CSR{rows: a.rows, cols: a.cols, indptr: indptr, indices: indices[:at], data: data[:at]}
}

// entry is one stored value of a row being sorted by column.
type entry struct {
	col int
	v   float64
}

func cmpCol(x, y entry) int { return cmp.Compare(x.col, y.col) }

// CSR is an immutable compressed-sparse-row matrix.
type CSR struct {
	rows, cols int
	indptr     []int
	indices    []int
	data       []float64
}

// NewCSR wraps pre-assembled CSR storage without copying. It validates the
// structure: indptr must be a non-decreasing length-(rows+1) prefix-sum
// starting at 0, indices/data must match its final value, and each row's
// column indices must be strictly increasing and in range. Builders that
// assemble rows in parallel (e.g. the graph constructors) use this to skip
// the COO sort round-trip. The caller must not mutate the slices afterwards.
func NewCSR(rows, cols int, indptr, indices []int, data []float64) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: NewCSR %dx%d: %w", rows, cols, ErrShape)
	}
	if len(indptr) != rows+1 || indptr[0] != 0 {
		return nil, fmt.Errorf("sparse: NewCSR indptr length %d (rows=%d): %w", len(indptr), rows, ErrShape)
	}
	nnz := indptr[rows]
	if len(indices) != nnz || len(data) != nnz {
		return nil, fmt.Errorf("sparse: NewCSR nnz mismatch indptr=%d indices=%d data=%d: %w",
			nnz, len(indices), len(data), ErrShape)
	}
	for i := 0; i < rows; i++ {
		lo, hi := indptr[i], indptr[i+1]
		if lo > hi {
			return nil, fmt.Errorf("sparse: NewCSR row %d has negative extent: %w", i, ErrShape)
		}
		prev := -1
		for k := lo; k < hi; k++ {
			j := indices[k]
			if j <= prev || j >= cols {
				return nil, fmt.Errorf("sparse: NewCSR row %d column %d (prev %d, cols %d): %w",
					i, j, prev, cols, ErrIndex)
			}
			prev = j
		}
	}
	return &CSR{rows: rows, cols: cols, indptr: indptr, indices: indices, data: data}, nil
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// Dims returns the row and column counts.
func (m *CSR) Dims() (int, int) { return m.rows, m.cols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.data) }

// At returns the element at (i, j); zero when the entry is not stored.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(ErrIndex)
	}
	lo, hi := m.indptr[i], m.indptr[i+1]
	k := lo + sort.SearchInts(m.indices[lo:hi], j)
	if k < hi && m.indices[k] == j {
		return m.data[k]
	}
	return 0
}

// SetAt overwrites the stored entry (i, j) with v. The sparsity pattern is
// fixed: an entry that is not stored is an ErrIndex.
func (m *CSR) SetAt(i, j int, v float64) error {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		return ErrIndex
	}
	lo, hi := m.indptr[i], m.indptr[i+1]
	k := lo + sort.SearchInts(m.indices[lo:hi], j)
	if k == hi || m.indices[k] != j {
		return ErrIndex
	}
	m.data[k] = v
	return nil
}

// RowNNZ returns the stored column indices and values of row i, aliasing the
// internal storage. Callers must not mutate the returned slices.
func (m *CSR) RowNNZ(i int) (cols []int, vals []float64) {
	lo, hi := m.indptr[i], m.indptr[i+1]
	return m.indices[lo:hi], m.data[lo:hi]
}

// MulVec returns m*x.
func (m *CSR) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.cols {
		return nil, ErrShape
	}
	out := make([]float64, m.rows)
	if err := m.MulVecTo(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// MulVecTo computes dst = m*x without allocating. dst must not alias x.
func (m *CSR) MulVecTo(dst, x []float64) error {
	return m.MulVecToWorkers(dst, x, 1)
}

// Below these sizes a parallel SpMV loses to the serial loop: the per-call
// goroutine handoff costs more than the row sweep it saves (benchmarked at
// ~0.98x for the CG inner loop on small systems), so MulVecToWorkers runs
// such matrices inline regardless of the requested worker count. The result
// is bitwise-identical either way — only scheduling changes.
const (
	mulVecMinParRows = 4096
	mulVecMinParNNZ  = 1 << 16
)

// MulVecToWorkers computes dst = m*x with rows distributed across the given
// worker count (workers <= 0 selects GOMAXPROCS, 1 runs serially inline;
// matrices below a size threshold run serially regardless, where the
// goroutine handoff would cost more than it saves). Each row's dot product
// is accumulated in the same left-to-right order as the serial path, so the
// result is bitwise-identical for every worker count. dst must not alias x.
// This is the inner loop of CG and of the Lanczos spectral routines.
func (m *CSR) MulVecToWorkers(dst, x []float64, workers int) error {
	if len(x) != m.cols || len(dst) != m.rows {
		return ErrShape
	}
	if workers == 1 || (m.rows < mulVecMinParRows && m.NNZ() < mulVecMinParNNZ) {
		// Direct serial loop: identical arithmetic to the parallel path, but
		// with no closure so the CG/PCG inner loop stays allocation-free.
		for i := 0; i < m.rows; i++ {
			a, b := m.indptr[i], m.indptr[i+1]
			var s float64
			for k := a; k < b; k++ {
				s += m.data[k] * x[m.indices[k]]
			}
			dst[i] = s
		}
		return nil
	}
	parallel.For(workers, m.rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a, b := m.indptr[i], m.indptr[i+1]
			var s float64
			for k := a; k < b; k++ {
				s += m.data[k] * x[m.indices[k]]
			}
			dst[i] = s
		}
	})
	return nil
}

// Diag returns the main diagonal as a dense slice.
func (m *CSR) Diag() []float64 {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	out := make([]float64, n)
	m.DiagTo(out)
	return out
}

// DiagTo fills dst with the main diagonal without allocating. dst must have
// length min(rows, cols); a wrong length panics like slice indexing.
func (m *CSR) DiagTo(dst []float64) {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	if len(dst) != n {
		panic(ErrShape)
	}
	for i := 0; i < n; i++ {
		dst[i] = m.At(i, i)
	}
}

// RowSums returns the vector of row sums.
func (m *CSR) RowSums() []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		lo, hi := m.indptr[i], m.indptr[i+1]
		var s float64
		for k := lo; k < hi; k++ {
			s += m.data[k]
		}
		out[i] = s
	}
	return out
}

// ToDense expands the matrix into a dense mat.Dense.
func (m *CSR) ToDense() *mat.Dense {
	d := mat.NewDense(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		lo, hi := m.indptr[i], m.indptr[i+1]
		for k := lo; k < hi; k++ {
			d.Set(i, m.indices[k], m.data[k])
		}
	}
	return d
}

// FromDense builds a CSR matrix from a dense one, dropping entries with
// |v| <= dropTol.
func FromDense(d *mat.Dense, dropTol float64) *CSR {
	r, c := d.Dims()
	coo := NewCOO(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := d.At(i, j)
			if v > dropTol || v < -dropTol {
				// Error is impossible: indices are in range by construction.
				_ = coo.Add(i, j, v)
			}
		}
	}
	return coo.ToCSR()
}

// Transpose returns the transpose as a new CSR matrix, dropping stored zeros
// (including -0). It is a counting transpose, O(nnz + cols).
func (m *CSR) Transpose() *CSR {
	indptr := make([]int, m.cols+1)
	for k, j := range m.indices {
		if m.data[k] != 0 {
			indptr[j+1]++
		}
	}
	for j := 0; j < m.cols; j++ {
		indptr[j+1] += indptr[j]
	}
	next := make([]int, m.cols)
	copy(next, indptr)
	indices := make([]int, indptr[m.cols])
	data := make([]float64, indptr[m.cols])
	for i := 0; i < m.rows; i++ {
		for k := m.indptr[i]; k < m.indptr[i+1]; k++ {
			if v := m.data[k]; v != 0 {
				j := m.indices[k]
				p := next[j]
				indices[p], data[p] = i, v
				next[j]++
			}
		}
	}
	return &CSR{rows: m.cols, cols: m.rows, indptr: indptr, indices: indices, data: data}
}

// IsSymmetric reports whether the matrix equals its transpose within tol.
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	t := m.Transpose()
	if len(t.data) != len(m.data) {
		return false
	}
	for i := 0; i < m.rows; i++ {
		lo, hi := m.indptr[i], m.indptr[i+1]
		tlo := t.indptr[i]
		if t.indptr[i+1]-tlo != hi-lo {
			return false
		}
		for k := lo; k < hi; k++ {
			tk := tlo + (k - lo)
			if m.indices[k] != t.indices[tk] {
				return false
			}
			diff := m.data[k] - t.data[tk]
			if diff > tol || diff < -tol {
				return false
			}
		}
	}
	return true
}
