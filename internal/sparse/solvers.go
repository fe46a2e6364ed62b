package sparse

import (
	"context"
	"errors"
	"math"

	"repro/internal/mat"
)

var (
	// ErrStagnated is returned when stagnation detection is enabled and the
	// residual has not improved over the configured iteration window. It is
	// the signal the auto fallback chain escalates on instead of spinning to
	// MaxIter.
	ErrStagnated = errors.New("sparse: iteration stagnated")
	// ErrDiverged is returned when the residual grows far beyond its
	// starting value or becomes non-finite.
	ErrDiverged = errors.New("sparse: iteration diverged")
)

// SolveResult reports how an iterative solve ended.
type SolveResult struct {
	// Iterations is the number of iterations performed.
	Iterations int
	// Residual is the final relative residual ‖b−Ax‖₂ / ‖b‖₂
	// (absolute when b = 0).
	Residual float64
}

// Preconditioner applies an approximate inverse of the system matrix:
// dst = M⁻¹ r. Implementations live in internal/precond (Jacobi scaling,
// zero-fill incomplete Cholesky); dst and r never alias and are fully
// overwritten. Apply must be deterministic — PCG's bitwise-reproducibility
// contract extends through it.
type Preconditioner interface {
	Apply(dst, r []float64)
}

// CGOptions configures the conjugate gradient solver.
type CGOptions struct {
	// Tol is the relative residual target; default 1e-10.
	Tol float64
	// MaxIter caps iterations; default 10*n.
	MaxIter int
	// X0 is the starting guess; default the zero vector.
	X0 []float64
	// Workers parallelizes the matrix-vector products over row ranges:
	// <= 0 (the default) selects GOMAXPROCS, 1 forces the serial path.
	// Dot products and vector updates stay serial, so the iterates are
	// bitwise-identical across worker counts.
	Workers int
	// Ctx, when non-nil, is checked once per iteration; a done context
	// aborts the solve with ctx.Err() (context.Canceled or
	// context.DeadlineExceeded) within one iteration sweep.
	Ctx context.Context
	// StagnationWindow, when > 0, enables stagnation detection: if the
	// relative residual fails to improve below StagnationImprove × its best
	// value for StagnationWindow consecutive iterations, the solve aborts
	// with ErrStagnated. Detection only observes the residual history, so
	// the iterates of a converging run are unchanged.
	StagnationWindow int
	// StagnationImprove is the required relative improvement factor per
	// window (default 0.99: the residual must drop at least 1% per window).
	StagnationImprove float64
	// DivergeFactor aborts with ErrDiverged when the residual exceeds
	// DivergeFactor × max(1, initial residual) or turns NaN/Inf
	// (default 1e8; only active when StagnationWindow > 0).
	DivergeFactor float64
}

// PCGOptions configures the preconditioned conjugate gradient solver. The
// embedded CGOptions carry the shared iteration controls (tolerance, caps,
// workers, context, stagnation/divergence guards).
type PCGOptions struct {
	CGOptions
	// M is the preconditioner; nil runs plain CG.
	M Preconditioner
	// Dst, when non-nil, receives the solution (len n) and is returned as
	// x, so warm repeated solves allocate nothing for the result vector.
	// May alias X0 (the warm-start idiom: solve in place of the previous
	// solution).
	Dst []float64
	// Ws supplies the scratch vectors. nil draws one from the internal
	// size-bucketed pool for the duration of the call. Passing an explicit
	// workspace across repeated solves makes the warm path allocation-free.
	Ws *Workspace
}

func (o *CGOptions) fill(n int) error {
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10 * n
		if o.MaxIter < 100 {
			o.MaxIter = 100
		}
	}
	if o.X0 != nil && len(o.X0) != n {
		return ErrShape
	}
	if o.StagnationImprove <= 0 || o.StagnationImprove >= 1 {
		o.StagnationImprove = 0.99
	}
	if o.DivergeFactor <= 0 {
		o.DivergeFactor = 1e8
	}
	return nil
}

// ctxErr reports the context's error, tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Workspace scratch-slot layout for the CG/PCG engine.
const (
	wsCGResidual = iota
	wsCGPrecond
	wsCGDirection
	wsCGMatVec
)

// CG solves A x = b for a symmetric positive definite CSR matrix using the
// unpreconditioned conjugate gradient method: PCG with no preconditioner.
func CG(a *CSR, b []float64, opts CGOptions) ([]float64, SolveResult, error) {
	return PCG(a, b, PCGOptions{CGOptions: opts})
}

// PCG solves A x = b by preconditioned conjugate gradient. With M == nil it
// degenerates to CG (identity preconditioner). The engine draws every
// scratch vector from a Workspace, so a caller holding one (plus Dst)
// across repeated solves — λ sweeps, one-vs-rest right-hand sides — runs
// with zero steady-state heap allocation. Iterates are bitwise-identical
// across worker counts: only the matrix-vector products parallelize, with
// fixed per-row accumulation order.
func PCG(a *CSR, b []float64, opts PCGOptions) ([]float64, SolveResult, error) {
	n := a.rows
	if a.cols != n || len(b) != n {
		return nil, SolveResult{}, ErrShape
	}
	if err := opts.fill(n); err != nil {
		return nil, SolveResult{}, err
	}
	if opts.Dst != nil && len(opts.Dst) != n {
		return nil, SolveResult{}, ErrShape
	}
	ws := opts.Ws
	if ws == nil {
		ws = GetWorkspace(n)
		defer ws.Release()
	}

	x := opts.Dst
	if x == nil {
		x = make([]float64, n)
	}
	if opts.X0 != nil {
		copy(x, opts.X0)
	} else {
		for i := range x {
			x[i] = 0
		}
	}
	r := ws.vec(wsCGResidual, n)
	if err := a.MulVecToWorkers(r, x, opts.Workers); err != nil {
		return nil, SolveResult{}, err
	}
	for i := range r {
		r[i] = b[i] - r[i]
	}
	bnorm := mat.Norm2(b)
	if bnorm == 0 {
		bnorm = 1
	}

	z := ws.vec(wsCGPrecond, n)
	applyM := func() {
		if opts.M != nil {
			opts.M.Apply(z, r)
		} else {
			copy(z, r)
		}
	}
	applyM()
	p := ws.vec(wsCGDirection, n)
	copy(p, z)
	rz := mat.Dot(r, z)
	ap := ws.vec(wsCGMatVec, n)

	res := mat.Norm2(r) / bnorm
	res0 := res
	bestRes, bestIt := res, 0
	for it := 0; it < opts.MaxIter; it++ {
		if res <= opts.Tol {
			return x, SolveResult{Iterations: it, Residual: res}, nil
		}
		if err := ctxErr(opts.Ctx); err != nil {
			return x, SolveResult{Iterations: it, Residual: res}, err
		}
		if opts.StagnationWindow > 0 {
			if math.IsNaN(res) || math.IsInf(res, 0) || res > opts.DivergeFactor*math.Max(1, res0) {
				return x, SolveResult{Iterations: it, Residual: res}, ErrDiverged
			}
			if res < opts.StagnationImprove*bestRes {
				bestRes, bestIt = res, it
			} else if it-bestIt >= opts.StagnationWindow {
				return x, SolveResult{Iterations: it, Residual: res}, ErrStagnated
			}
		}
		if err := a.MulVecToWorkers(ap, p, opts.Workers); err != nil {
			return nil, SolveResult{}, err
		}
		pap := mat.Dot(p, ap)
		if pap <= 0 {
			// Not positive definite along p: cannot proceed.
			return nil, SolveResult{Iterations: it, Residual: res}, ErrNotConverged
		}
		alpha := rz / pap
		mat.AXPY(alpha, p, x)
		mat.AXPY(-alpha, ap, r)
		res = mat.Norm2(r) / bnorm
		applyM()
		rzNew := mat.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	if res <= opts.Tol {
		return x, SolveResult{Iterations: opts.MaxIter, Residual: res}, nil
	}
	return x, SolveResult{Iterations: opts.MaxIter, Residual: res}, ErrNotConverged
}
