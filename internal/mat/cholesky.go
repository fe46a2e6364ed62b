package mat

import "math"

// Cholesky is the factorization A = L Lᵀ of a symmetric positive definite
// matrix, with L lower triangular.
type Cholesky struct {
	l *Dense
}

// panelWidth is the number of columns NewCholesky factors per panel: the
// width of the packed panel and of panelDots' 4×8 tile.
const panelWidth = 8

// NewCholesky factors the symmetric positive definite matrix a. Only the
// lower triangle of a is read. ErrNotPositiveDefinite is returned when a
// pivot is not a finite positive number.
//
// The factorization is left-looking in panels of panelWidth columns. Each
// panel's rows of L are packed k-major, then every row at or below the
// panel goes through panelDots four rows at a time, which sums
// L[i][k]·L[j][k] over the columns k left of the panel for each panel
// column j. Each entry is then finished over the panel's own columns in
// ascending k and divided by its pivot; the diagonal entry is lane (j, j)
// finished the same way. Every sum starts from zero and adds its products in
// ascending k, so each L[i][j] is the same sequence of rounded operations as
// (a[i][j] − Σ_{k<j} L[i][k]·L[j][k]) / L[j][j] computed with Dot: the
// factor does not depend on the panel width or on which kernel runs.
func NewCholesky(a *Dense) (*Cholesky, error) {
	if !a.IsSquare() {
		return nil, ErrSquare
	}
	n := a.rows
	l := NewDense(n, n)
	ad, ld := a.data, l.data
	pack := make([]float64, panelWidth*n)
	var acc [4 * panelWidth]float64
	for j0 := 0; j0 < n; j0 += panelWidth {
		jb := min(panelWidth, n-j0)
		p := pack[:panelWidth*j0]
		for c := 0; c < jb; c++ {
			for k, v := range ld[(j0+c)*n : (j0+c)*n+j0] {
				p[k*panelWidth+c] = v
			}
		}
		for i := j0; i < n; i += 4 {
			// A short last group repeats row n−1; its extra lanes are unused.
			var rows [4][]float64
			for q := range rows {
				r := min(i+q, n-1)
				rows[q] = ld[r*n : r*n+j0]
			}
			panelDots(&rows, p, &acc)
			for r := i; r < min(i+4, n); r++ {
				lr := ld[r*n : r*n+n]
				for c := 0; c < min(jb, r-j0+1); c++ {
					j := j0 + c
					lj := ld[j*n : j*n+j]
					s := acc[(r-i)*panelWidth+c]
					for k := j0; k < j; k++ {
						s += lr[k] * lj[k]
					}
					if r > j {
						lr[j] = (ad[r*n+j] - s) / ld[j*n+j]
						continue
					}
					d := ad[j*n+j] - s
					// Written so that NaN and +Inf fail it too.
					if !(d > 0 && d <= math.MaxFloat64) {
						return nil, ErrNotPositiveDefinite
					}
					lr[j] = math.Sqrt(d)
				}
			}
		}
	}
	return &Cholesky{l: l}, nil
}

// panelDots sets out[8q+c] = Σ_k rows[q][k]·p[8k+c] for the k < len(p)/8
// columns left of a panel, each lane summed from zero in ascending k with
// one rounding per product and per add. On amd64 with AVX the tile runs in
// panelDots4x8 (panel_amd64.s), in the same order, so both paths return
// the same bits.
func panelDots(rows *[4][]float64, p []float64, out *[4 * panelWidth]float64) {
	nk := len(p) / panelWidth
	if useAVX && nk > 0 {
		panelDots4x8(&rows[0][0], &rows[1][0], &rows[2][0], &rows[3][0], &p[0], nk, out)
		return
	}
	for q, row := range rows {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for k, v := range row[:nk] {
			b := p[k*panelWidth:][:panelWidth]
			s0 += v * b[0]
			s1 += v * b[1]
			s2 += v * b[2]
			s3 += v * b[3]
			s4 += v * b[4]
			s5 += v * b[5]
			s6 += v * b[6]
			s7 += v * b[7]
		}
		out[q*panelWidth+0], out[q*panelWidth+1], out[q*panelWidth+2], out[q*panelWidth+3] = s0, s1, s2, s3
		out[q*panelWidth+4], out[q*panelWidth+5], out[q*panelWidth+6], out[q*panelWidth+7] = s4, s5, s6, s7
	}
}

// Order returns the dimension of the factored matrix.
func (c *Cholesky) Order() int { return c.l.rows }

// L returns a copy of the lower-triangular factor.
func (c *Cholesky) L() *Dense { return c.l.Clone() }

// Solve solves A x = b.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	x := make([]float64, c.l.rows)
	if err := c.SolveTo(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveTo solves A x = b into dst without allocating. dst may alias b (the
// substitution runs in place). Multi-RHS loops reuse one dst across
// columns.
func (c *Cholesky) SolveTo(dst, b []float64) error {
	n := c.l.rows
	if len(b) != n || len(dst) != n {
		return ErrShape
	}
	x := dst
	copy(x, b)
	// Forward: L y = b.
	for i := 0; i < n; i++ {
		row := c.l.data[i*n : i*n+i]
		x[i] = (x[i] - Dot(row, x[:i])) / c.l.data[i*n+i]
	}
	// Backward: Lᵀ x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= c.l.data[k*n+i] * x[k]
		}
		x[i] = s / c.l.data[i*n+i]
	}
	return nil
}

// SolveMatrix solves A X = B column by column.
func (c *Cholesky) SolveMatrix(b *Dense) (*Dense, error) {
	n := c.l.rows
	if b.rows != n {
		return nil, ErrShape
	}
	out := NewDense(n, b.cols)
	col := make([]float64, n)
	for j := 0; j < b.cols; j++ {
		for i := 0; i < n; i++ {
			col[i] = b.data[i*b.cols+j]
		}
		x, err := c.Solve(col)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			out.data[i*out.cols+j] = x[i]
		}
	}
	return out, nil
}

// LogDet returns log det(A) = 2 Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	n := c.l.rows
	var s float64
	for i := 0; i < n; i++ {
		s += math.Log(c.l.data[i*n+i])
	}
	return 2 * s
}

// SolveSPD factors the symmetric positive definite a with Cholesky and
// solves a x = b. It returns ErrNotPositiveDefinite when the factorization
// meets a non-positive pivot.
func SolveSPD(a *Dense, b []float64) ([]float64, error) {
	c, err := NewCholesky(a)
	if err != nil {
		return nil, err
	}
	return c.Solve(b)
}
