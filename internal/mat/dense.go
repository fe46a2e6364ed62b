// Package mat implements the dense and decompositional linear algebra used
// throughout the reproduction: a row-major dense matrix type, BLAS-style
// primitives, a Cholesky factorization, and a symmetric eigensolver.
//
// The package is deliberately small and stdlib-only. It favours clarity and
// numerical robustness (positive-pivot checks, scaled norms) over peak
// throughput; matrices in the paper's experiments are at
// most a few thousand rows.
//
// All routines return errors rather than panicking, except for element
// accessors (At/Set), which panic on out-of-range indices like the built-in
// slice indexing they wrap.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix of float64 values.
//
// The zero value is an empty (0x0) matrix; use NewDense or NewDenseData to
// create a sized one.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zeroed r-by-c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(ErrIndex)
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseData returns an r-by-c matrix backed by a copy of data, which must
// hold exactly r*c values in row-major order.
func NewDenseData(r, c int, data []float64) (*Dense, error) {
	if len(data) != r*c {
		return nil, fmt.Errorf("mat: NewDenseData needs %d values, got %d: %w", r*c, len(data), ErrShape)
	}
	d := make([]float64, len(data))
	copy(d, data)
	return &Dense{rows: r, cols: c, data: d}, nil
}

// Eye returns the n-by-n identity matrix.
func Eye(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Diag returns a square matrix with v on the main diagonal.
func Diag(v []float64) *Dense {
	n := len(v)
	m := NewDense(n, n)
	for i, x := range v {
		m.data[i*n+i] = x
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// Dims returns the row and column counts.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// IsSquare reports whether the matrix is square.
func (m *Dense) IsSquare() bool { return m.rows == m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(ErrIndex)
	}
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(ErrIndex)
	}
	m.data[i*m.cols+j] = v
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(ErrIndex)
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(ErrIndex)
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// RawRow returns row i as a slice aliasing the matrix storage. Mutating the
// returned slice mutates the matrix. Intended for hot loops; most callers
// should prefer Row.
func (m *Dense) RawRow(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(ErrIndex)
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: d}
}

// T returns a newly allocated transpose.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// Apply replaces each element x at (i, j) with fn(i, j, x).
func (m *Dense) Apply(fn func(i, j int, v float64) float64) {
	for i := 0; i < m.rows; i++ {
		base := i * m.cols
		for j := 0; j < m.cols; j++ {
			m.data[base+j] = fn(i, j, m.data[base+j])
		}
	}
}

// Trace returns the sum of diagonal elements of a square matrix.
func (m *Dense) Trace() (float64, error) {
	if !m.IsSquare() {
		return 0, ErrSquare
	}
	var t float64
	for i := 0; i < m.rows; i++ {
		t += m.data[i*m.cols+i]
	}
	return t, nil
}

// MaxAbs returns max_ij |m_ij|; zero for an empty matrix.
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// NormInf returns the induced infinity-norm (maximum absolute row sum).
func (m *Dense) NormInf() float64 {
	var mx float64
	for i := 0; i < m.rows; i++ {
		var s float64
		for _, v := range m.data[i*m.cols : (i+1)*m.cols] {
			s += math.Abs(v)
		}
		if s > mx {
			mx = s
		}
	}
	return mx
}

// NormFrob returns the Frobenius norm.
func (m *Dense) NormFrob() float64 {
	var ss float64
	for _, v := range m.data {
		ss += v * v
	}
	return math.Sqrt(ss)
}

// IsSymmetric reports whether |m_ij - m_ji| <= tol for all i, j.
func (m *Dense) IsSymmetric(tol float64) bool {
	if !m.IsSquare() {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.data[i*m.cols+j]-m.data[j*m.cols+i]) > tol {
				return false
			}
		}
	}
	return true
}

// Equal reports whether m and b have the same shape and |m_ij - b_ij| <= tol
// everywhere.
func (m *Dense) Equal(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging; rows are truncated past 8 columns.
func (m *Dense) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Dense(%dx%d)", m.rows, m.cols)
	maxR, maxC := m.rows, m.cols
	const lim = 8
	if maxR > lim {
		maxR = lim
	}
	if maxC > lim {
		maxC = lim
	}
	for i := 0; i < maxR; i++ {
		sb.WriteString("\n[")
		for j := 0; j < maxC; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.4g", m.data[i*m.cols+j])
		}
		if maxC < m.cols {
			sb.WriteString(" ...")
		}
		sb.WriteByte(']')
	}
	if maxR < m.rows {
		sb.WriteString("\n...")
	}
	return sb.String()
}
