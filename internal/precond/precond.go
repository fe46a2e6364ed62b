// Package precond provides preconditioners for the conjugate-gradient
// solves at the heart of both paper criteria: the hard system D22−W22 and
// the soft system V+λL are symmetric positive definite M-matrices, and on
// the ill-conditioned regimes the paper studies (small bandwidth h_n,
// weakly connected graphs, large λ) unpreconditioned CG iteration counts
// blow up. Jacobi scaling is the cheap always-works baseline; zero-fill
// incomplete Cholesky IC(0) typically cuts iterations several-fold at the
// cost of one sparse triangular factorization.
//
// Every implementation satisfies sparse.Preconditioner, applies
// deterministically (the PCG bitwise-reproducibility contract extends
// through Apply), and is safe for repeated Apply calls with zero heap
// allocation once constructed. Instances are not goroutine-safe: IC(0)
// keeps an internal substitution scratch vector.
package precond

import (
	"errors"
	"math"

	"repro/internal/sparse"
)

var (
	// ErrBreakdown is returned by NewIC0 when the incomplete factorization
	// hits a non-positive or non-finite pivot. The system is then too far
	// from an M-matrix for zero-fill factorization; callers fall back to
	// Jacobi (Auto does so automatically).
	ErrBreakdown = errors.New("precond: incomplete Cholesky breakdown")
	// ErrShape is returned for non-square or mismatched operands.
	ErrShape = errors.New("precond: dimension mismatch")
	// ErrZeroDiagonal is returned when a diagonal entry is zero, which rules
	// out both diagonal scaling and IC(0).
	ErrZeroDiagonal = errors.New("precond: zero diagonal entry")
)

// Preconditioner is the package's extended interface: sparse.Preconditioner
// plus an identity for diagnostics reports.
type Preconditioner interface {
	sparse.Preconditioner
	// Name identifies the preconditioner ("jacobi", "ic0") in solve traces.
	Name() string
}

// Jacobi is diagonal (point) scaling: M = diag(A), Apply computes
// dst[i] = r[i] / a_ii as invDiag[i]*r[i]. It is the one Jacobi of the
// solve layer: every Jacobi-preconditioned PCG passes one as
// sparse.PCGOptions.M.
type Jacobi struct {
	invDiag []float64
}

// NewJacobi builds the diagonal preconditioner for a square matrix.
func NewJacobi(a *sparse.CSR) (*Jacobi, error) {
	n, c := a.Dims()
	if n != c {
		return nil, ErrShape
	}
	j := &Jacobi{invDiag: make([]float64, n)}
	if err := j.Update(a); err != nil {
		return nil, err
	}
	return j, nil
}

// Update recomputes the diagonal from a matrix of the same size, reusing
// storage. Sweeps over a fixed sparsity pattern use it to track changing
// values without reallocating.
func (j *Jacobi) Update(a *sparse.CSR) error {
	n, c := a.Dims()
	if n != c || n != len(j.invDiag) {
		return ErrShape
	}
	a.DiagTo(j.invDiag)
	for i, d := range j.invDiag {
		if d == 0 {
			return ErrZeroDiagonal
		}
		j.invDiag[i] = 1 / d
	}
	return nil
}

// SetDiag rewrites one diagonal entry to d, exactly as Update would
// compute it from a matrix whose i-th diagonal entry is d. d must be
// nonzero: Update and NewJacobi refuse a zero diagonal.
func (j *Jacobi) SetDiag(i int, d float64) { j.invDiag[i] = 1 / d }

// Apply computes dst = D⁻¹ r.
func (j *Jacobi) Apply(dst, r []float64) {
	for i := range dst {
		dst[i] = j.invDiag[i] * r[i]
	}
}

// Name implements Preconditioner.
func (j *Jacobi) Name() string { return "jacobi" }

// IC0 is the zero-fill incomplete Cholesky preconditioner: a lower
// triangular factor L with exactly the sparsity of tril(A) such that
// L Lᵀ ≈ A, applied as two sparse triangular solves. For the
// diagonally-dominant M-matrices of the graph criteria the factorization
// exists (no breakdown) and clusters the preconditioned spectrum far more
// tightly than diagonal scaling.
type IC0 struct {
	n      int
	rowptr []int     // strict lower-triangular row extents
	cols   []int     // strict lower-triangular column indices, ascending
	val    []float64 // strict lower-triangular factor values
	diag   []float64 // L diagonal
	y      []float64 // substitution scratch, reused across Apply calls
	// Transpose copy of the factor (Lᵀ as upper-triangular CSR) for the
	// backward solve: a row-gather sweep over Lᵀ touches memory forward
	// and sequentially, where the row-scatter sweep over L it replaces
	// read-modified-wrote the scratch vector at random offsets.
	trowptr []int
	tcols   []int
	tval    []float64
	tmap    []int // lower entry k → its slot in tval, refreshed by Update
}

// NewIC0 factors a symmetric positive definite CSR matrix. It returns
// ErrBreakdown when a pivot is non-positive or non-finite (the zero-fill
// constraint discarded too much), in which case callers should fall back to
// Jacobi scaling.
func NewIC0(a *sparse.CSR) (*IC0, error) {
	n, c := a.Dims()
	if n != c {
		return nil, ErrShape
	}
	ic := &IC0{
		n:      n,
		rowptr: make([]int, n+1),
		diag:   make([]float64, n),
		y:      make([]float64, n),
	}
	nnzLower := 0
	for i := 0; i < n; i++ {
		cols, _ := a.RowNNZ(i)
		for _, j := range cols {
			if j < i {
				nnzLower++
			}
		}
	}
	ic.cols = make([]int, 0, nnzLower)
	ic.val = make([]float64, nnzLower)
	for i := 0; i < n; i++ {
		cols, _ := a.RowNNZ(i)
		for _, j := range cols {
			if j < i {
				ic.cols = append(ic.cols, j)
			}
		}
		ic.rowptr[i+1] = len(ic.cols)
	}
	// Transpose pattern: row j of Lᵀ collects every lower entry (i, j) in
	// ascending i (the outer loop order), so tcols stays sorted.
	ic.trowptr = make([]int, n+1)
	for _, j := range ic.cols {
		ic.trowptr[j+1]++
	}
	for i := 0; i < n; i++ {
		ic.trowptr[i+1] += ic.trowptr[i]
	}
	next := make([]int, n)
	copy(next, ic.trowptr[:n])
	ic.tcols = make([]int, len(ic.cols))
	ic.tval = make([]float64, len(ic.cols))
	ic.tmap = make([]int, len(ic.cols))
	for i := 0; i < n; i++ {
		for k := ic.rowptr[i]; k < ic.rowptr[i+1]; k++ {
			j := ic.cols[k]
			p := next[j]
			next[j]++
			ic.tcols[p] = i
			ic.tmap[k] = p
		}
	}
	if err := ic.Update(a); err != nil {
		return nil, err
	}
	return ic, nil
}

// Update refactors from a matrix with the same sparsity pattern, reusing
// the symbolic structure and all storage; NewIC0 runs it as its numeric
// phase.
func (ic *IC0) Update(a *sparse.CSR) error {
	n, c := a.Dims()
	if n != c || n != ic.n {
		return ErrShape
	}
	for i := 0; i < n; i++ {
		cols, vals := a.RowNNZ(i)
		aDiag := math.NaN()
		at := ic.rowptr[i]
		for k, j := range cols {
			switch {
			case j < i:
				if at >= ic.rowptr[i+1] || ic.cols[at] != j {
					return ErrShape // pattern drifted from the symbolic phase
				}
				// L[i][j] = (A[i][j] − Σ_{k<j} L[i][k]·L[j][k]) / L[j][j]
				ic.val[at] = (vals[k] - ic.sparseDot(i, j)) / ic.diag[j]
				at++
			case j == i:
				aDiag = vals[k]
			}
		}
		if at != ic.rowptr[i+1] {
			return ErrShape
		}
		var sq float64
		for k := ic.rowptr[i]; k < ic.rowptr[i+1]; k++ {
			sq += ic.val[k] * ic.val[k]
		}
		piv := aDiag - sq
		if math.IsNaN(piv) || math.IsInf(piv, 0) || piv <= 0 {
			return ErrBreakdown
		}
		ic.diag[i] = math.Sqrt(piv)
	}
	for k, p := range ic.tmap {
		ic.tval[p] = ic.val[k]
	}
	return nil
}

// sparseDot returns Σ_k L[i][k]·L[j][k] over k < j, the merged product of
// two ascending-column factor rows.
func (ic *IC0) sparseDot(i, j int) float64 {
	pi, pj := ic.rowptr[i], ic.rowptr[j]
	ei, ej := ic.rowptr[i+1], ic.rowptr[j+1]
	var s float64
	for pi < ei && pj < ej {
		ci, cj := ic.cols[pi], ic.cols[pj]
		if ci >= j {
			break
		}
		switch {
		case ci == cj:
			s += ic.val[pi] * ic.val[pj]
			pi++
			pj++
		case ci < cj:
			pi++
		default:
			pj++
		}
	}
	return s
}

// Apply solves L Lᵀ dst = r by forward then backward substitution. It
// allocates nothing; the scratch vector persists on the receiver.
func (ic *IC0) Apply(dst, r []float64) {
	n := ic.n
	y := ic.y
	// Forward: L y = r.
	for i := 0; i < n; i++ {
		s := r[i]
		for k := ic.rowptr[i]; k < ic.rowptr[i+1]; k++ {
			s -= ic.val[k] * y[ic.cols[k]]
		}
		y[i] = s / ic.diag[i]
	}
	// Backward: Lᵀ dst = y, gathering along rows of the transpose copy so
	// every inner loop reads contiguous factor storage.
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := ic.trowptr[i]; k < ic.trowptr[i+1]; k++ {
			s -= ic.tval[k] * dst[ic.tcols[k]]
		}
		dst[i] = s / ic.diag[i]
	}
}

// Name implements Preconditioner.
func (ic *IC0) Name() string { return "ic0" }

// Auto builds the strongest preconditioner that applies: IC(0), falling
// back to Jacobi scaling when the incomplete factorization breaks down.
// Shape and zero-diagonal errors are not absorbed — they mean no
// preconditioner of either kind is defined.
func Auto(a *sparse.CSR) (Preconditioner, error) {
	ic, err := NewIC0(a)
	if err == nil {
		return ic, nil
	}
	if !errors.Is(err, ErrBreakdown) {
		return nil, err
	}
	return NewJacobi(a)
}
