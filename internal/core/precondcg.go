package core

import (
	"context"
	"time"

	"repro/internal/precond"
	"repro/internal/sparse"
)

// This file is the single CG entry point of the solve pipeline: every
// backend that runs conjugate gradient — the explicit MethodCG branches of
// SolveHard/SolveSoft and the iterative head of the MethodAuto chain — goes
// through solveCG, so preconditioner selection, RCM reordering, and
// diagnostics accounting live in one place.

// cgOutcome reports how a CG solve was preconditioned, for traces and the
// public Report.
type cgOutcome struct {
	// name identifies the applied preconditioner ("jacobi", "ic0+rcm",
	// "jacobi+rcm", "none").
	name string
	// setup is the wall time of reordering plus factorization (zero for
	// Jacobi, whose setup is one diagonal pass).
	setup time.Duration
}

// resolvePrecond maps PrecondAuto onto a concrete choice: Jacobi at or
// below the dense/iterative cutoff (those systems rarely reach CG at all),
// IC(0)+RCM above it, where the health probe has already vouched for
// conditioning and the factorization cost is amortized by the iteration
// savings.
func resolvePrecond(p Precond, n, cutoff int) Precond {
	if p != PrecondAuto {
		return p
	}
	if cutoff <= 0 {
		cutoff = defaultAutoCutoff
	}
	if n > cutoff {
		return PrecondIC0
	}
	return PrecondJacobi
}

// solveCG runs the CG backend on A x = b under cfg's preconditioner choice.
// The Jacobi and unpreconditioned paths solve A x = b directly; the IC(0)
// path permutes the system with RCM, solves P A Pᵀ (P x) = P b with the
// incomplete-Cholesky PCG, and un-permutes the solution. Every path is
// deterministic and bitwise-stable across worker counts.
func solveCG(ctx context.Context, a *sparse.CSR, b []float64, cfg solveConfig, stagnationWindow int) ([]float64, sparse.SolveResult, cgOutcome, error) {
	base := sparse.CGOptions{
		Tol:              cfg.tol,
		MaxIter:          cfg.maxIter,
		Workers:          cfg.workers,
		Ctx:              ctx,
		StagnationWindow: stagnationWindow,
	}
	switch resolvePrecond(cfg.precond, a.Rows(), cfg.autoCutoff) {
	case PrecondNone:
		x, res, err := sparse.CG(a, b, base)
		return x, res, cgOutcome{name: "none"}, err
	case PrecondIC0:
		start := time.Now()
		perm, err := sparse.RCM(a)
		if err != nil {
			return nil, sparse.SolveResult{}, cgOutcome{}, err
		}
		pa, err := a.Permute(perm)
		if err != nil {
			return nil, sparse.SolveResult{}, cgOutcome{}, err
		}
		m, err := precond.Auto(pa)
		if err != nil {
			// Zero/negative diagonal: no preconditioner of either kind is
			// defined. Let the auto chain escalate to a dense backend.
			return nil, sparse.SolveResult{}, cgOutcome{}, err
		}
		out := cgOutcome{name: m.Name() + "+rcm", setup: time.Since(start)}
		n := a.Rows()
		pb := make([]float64, n)
		sparse.PermuteVecTo(pb, b, perm)
		px, res, err := sparse.PCG(pa, pb, sparse.PCGOptions{CGOptions: base, M: m})
		if err != nil {
			return nil, res, out, err
		}
		x := make([]float64, n)
		sparse.UnpermuteVecTo(x, px, perm)
		return x, res, out, nil
	default: // PrecondJacobi
		m, err := precond.NewJacobi(a)
		if err != nil {
			return nil, sparse.SolveResult{}, cgOutcome{}, err
		}
		x, res, err := sparse.PCG(a, b, sparse.PCGOptions{CGOptions: base, M: m})
		return x, res, cgOutcome{name: "jacobi"}, err
	}
}

// applyTraceOutcome copies the winning attempt's preconditioner identity
// from an auto-chain trace onto the solution.
func applyTraceOutcome(sol *Solution, tr *SolveTrace) {
	if sol == nil || tr == nil || len(tr.Attempts) == 0 {
		return
	}
	last := tr.Attempts[len(tr.Attempts)-1]
	sol.Precond = last.Precond
	sol.PrecondSetup = last.PrecondSetup
}
