package core

import (
	"fmt"

	"repro/internal/mat"
)

// HardFactorization is a reusable factorization of the hard criterion's
// system matrix D22−W22 for a fixed graph and labeled set. It amortizes the
// O(m³) factorization across many right-hand sides — one per class in
// one-vs-rest multiclass.
type HardFactorization struct {
	p    *Problem
	chol *mat.Cholesky
}

// NewHardFactorization builds the system and factors it once with Cholesky:
// D22−W22 is a symmetric M-matrix, positive definite whenever every
// unlabeled component touches a label.
func NewHardFactorization(p *Problem) (*HardFactorization, error) {
	sys, err := buildHardSystem(p)
	if err != nil {
		return nil, err
	}
	chol, err := mat.NewCholesky(sys.a.ToDense())
	if err != nil {
		return nil, fmt.Errorf("core: hard factorization: %w: %w", ErrSolver, err)
	}
	return &HardFactorization{p: p, chol: chol}, nil
}

// SolveY computes the hard solution for a new response vector y on the
// same labeled set (len(y) = Problem.N()). Only the right-hand side W21·y
// is rebuilt; the factorization is reused.
func (f *HardFactorization) SolveY(y []float64) (*Solution, error) {
	if len(y) != f.p.N() {
		return nil, fmt.Errorf("core: SolveY with %d responses, want %d: %w", len(y), f.p.N(), ErrParam)
	}
	fu, err := f.chol.Solve(f.rhs(y))
	if err != nil {
		return nil, fmt.Errorf("core: SolveY: %w: %w", ErrSolver, err)
	}
	// Assemble with the supplied y (not the problem's placeholder).
	full := make([]float64, f.p.g.N())
	for k, l := range f.p.labeled {
		full[l] = y[k]
	}
	for k, u := range f.p.unlabeled {
		full[u] = fu[k]
	}
	return &Solution{
		F:          full,
		FUnlabeled: fu,
		Lambda:     0,
		Method:     MethodCholesky,
	}, nil
}

// rhs assembles W21·y for an arbitrary response vector on the labeled set.
func (f *HardFactorization) rhs(y []float64) []float64 {
	yAt := make([]float64, f.p.g.N())
	for k, l := range f.p.labeled {
		yAt[l] = y[k]
	}
	w := f.p.g.Weights()
	b := make([]float64, f.p.M())
	for k, u := range f.p.unlabeled {
		cols, vals := w.RowNNZ(u)
		var s float64
		for c, j := range cols {
			if f.p.isLabeled[j] {
				s += vals[c] * yAt[j]
			}
		}
		b[k] = s
	}
	return b
}
