package core

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/precond"
	"repro/internal/sparse"
)

// SolveSoft computes the soft-criterion solution (paper Eq. 3):
//
//	f̂ = (V + λL)⁻¹ V Y,
//
// where V is the diagonal labeled-indicator matrix and L = D − W the
// unnormalized Laplacian. At λ = 0 the problem dispatches to SolveHard,
// implementing Proposition II.1 (the soft solution converges to the hard one
// as λ → 0).
//
// The labeled entries of the returned Solution.F are the fitted values,
// which the soft criterion shrinks away from Y.
func SolveSoft(p *Problem, lambda float64, opts ...SolveOption) (*Solution, error) {
	if lambda < 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return nil, fmt.Errorf("core: lambda=%v: %w", lambda, ErrParam)
	}
	if lambda == 0 {
		return SolveHard(p, opts...)
	}
	cfg, err := newSolveConfig(opts)
	if err != nil {
		return nil, err
	}
	if err := ctxErr(cfg.ctx); err != nil {
		return nil, err
	}

	lap, err := p.g.Laplacian(graph.Unnormalized)
	if err != nil {
		return nil, fmt.Errorf("core: laplacian: %w", err)
	}
	nTotal := p.g.N()
	// Assemble A = V + λL and rhs = V Y in sparse form.
	coo := sparse.NewCOO(nTotal, nTotal)
	for i := 0; i < nTotal; i++ {
		cols, vals := lap.RowNNZ(i)
		for k, j := range cols {
			if err := coo.Add(i, j, lambda*vals[k]); err != nil {
				return nil, err
			}
		}
	}
	rhs := make([]float64, nTotal)
	for k, l := range p.labeled {
		if err := coo.Add(l, l, 1); err != nil {
			return nil, err
		}
		rhs[l] = p.y[k]
	}
	a := coo.ToCSR()

	var (
		f      []float64
		res    sparse.SolveResult
		trace  *SolveTrace
		cgOut  cgOutcome
		method = cfg.method
	)
	switch cfg.method {
	case MethodAuto:
		f, res, method, trace, err = runChain(cfg.ctx, a, rhs, cfg)
	default:
		if err := explicitMethod(cfg.method); err != nil {
			return nil, err
		}
		f, res, cgOut, err = runBackend(cfg.ctx, cfg.method, a, rhs, cfg, 0)
	}
	if err == nil && !finiteVec(f) {
		err = fmt.Errorf("core: %v produced non-finite values: %w", method, mat.ErrSingular)
	}
	if err != nil {
		if cfg.ctx != nil && cfg.ctx.Err() != nil {
			return nil, cfg.ctx.Err()
		}
		return nil, fmt.Errorf("core: soft solve (λ=%v, %v): %w: %w", lambda, cfg.method, ErrSolver, err)
	}

	fu := make([]float64, p.M())
	for k, u := range p.unlabeled {
		fu[k] = f[u]
	}
	full := make([]float64, len(f))
	copy(full, f)
	sol := &Solution{
		F:            full,
		FUnlabeled:   fu,
		Lambda:       lambda,
		Method:       method,
		Iterations:   res.Iterations,
		Residual:     res.Residual,
		Precond:      cgOut.name,
		PrecondSetup: cgOut.setup,
		Trace:        trace,
	}
	applyTraceOutcome(sol, trace)
	return sol, nil
}

// SoftObjective evaluates the paper's Eq. 2 objective
// Σ_{labeled}(Y_i−f_i)² + (λ/2) Σ_ij w_ij (f_i−f_j)² at the given full score
// vector. Used by tests to verify that solver outputs are stationary points.
func SoftObjective(p *Problem, lambda float64, f []float64) (float64, error) {
	nTotal := p.g.N()
	if len(f) != nTotal {
		return 0, fmt.Errorf("core: objective needs %d scores, got %d: %w", nTotal, len(f), ErrParam)
	}
	var loss float64
	for k, l := range p.labeled {
		d := p.y[k] - f[l]
		loss += d * d
	}
	lap, err := p.g.Laplacian(graph.Unnormalized)
	if err != nil {
		return 0, err
	}
	lf, err := lap.MulVec(f)
	if err != nil {
		return 0, err
	}
	// Σ_ij w_ij (f_i−f_j)² = 2 fᵀLf, so (λ/2)Σ = λ fᵀLf.
	return loss + lambda*mat.Dot(f, lf), nil
}

// LambdaInfinity returns the λ→∞ limit of the soft criterion on a connected
// graph: every score collapses to the labeled mean ȳ_n (Proposition II.2's
// counterexample). Disconnected graphs return ErrDisconnected because the
// limit is then the labeled mean within each component.
func LambdaInfinity(p *Problem) (float64, error) {
	if !p.g.IsConnected() {
		return 0, ErrDisconnected
	}
	var s float64
	for _, v := range p.y {
		s += v
	}
	return s / float64(len(p.y)), nil
}

// LambdaPathPoint is one evaluation on a λ path.
type LambdaPathPoint struct {
	Lambda   float64
	Solution *Solution
}

// SoftSweep solves the soft criterion for every λ in lambdas, sharing the
// work that SolveSoft repeats per call: the unnormalized Laplacian and the
// merged sparsity pattern of A(λ) = V + λL are assembled once, and each
// λ > 0 solve only refills the numeric values. Solves use Jacobi-
// preconditioned CG, warm-started from the previous λ's solution — the
// systems along a λ path differ by a smooth rescaling, so the previous
// solution is already close and CG converges in a few iterations. λ = 0
// entries dispatch to SolveHard, exactly as SolveSoft does.
//
// The warm path serves MethodAuto and MethodCG with PrecondAuto or
// PrecondJacobi (tolerance from WithTolerance, default 1e-10); any other
// method or preconditioner falls back to per-λ SolveSoft. Results are
// bitwise-identical across worker counts, and independent of how lambdas
// interleave zeros (λ = 0 solutions never enter the warm-start chain).
//
// The CSR wrapper, Jacobi preconditioner, solver workspace, and warm-start
// buffer persist across the whole path, so the steady state of a sweep
// allocates only the per-point result copies.
func SoftSweep(p *Problem, lambdas []float64, opts ...SolveOption) ([]LambdaPathPoint, error) {
	if len(lambdas) == 0 {
		return nil, fmt.Errorf("core: empty lambda sweep: %w", ErrParam)
	}
	for _, l := range lambdas {
		if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return nil, fmt.Errorf("core: lambda=%v: %w", l, ErrParam)
		}
	}
	cfg, err := newSolveConfig(opts)
	if err != nil {
		return nil, err
	}
	if (cfg.method != MethodAuto && cfg.method != MethodCG) ||
		(cfg.precond != PrecondAuto && cfg.precond != PrecondJacobi) {
		return LambdaPath(p, lambdas, opts...)
	}

	lap, err := p.g.Laplacian(graph.Unnormalized)
	if err != nil {
		return nil, fmt.Errorf("core: laplacian: %w", err)
	}
	nTotal := p.g.N()

	// Merged pattern of V + λL: the Laplacian rows plus the labeled
	// diagonal entries L may lack (a labeled node isolated in the graph has
	// an empty Laplacian row). Per entry we keep the Laplacian value and
	// the V addend, so each λ is a pure numeric refill.
	indptr := make([]int, nTotal+1)
	var indices []int
	var lapVal, vAdd []float64
	rhs := make([]float64, nTotal)
	for k, l := range p.labeled {
		rhs[l] = p.y[k]
	}
	for i := 0; i < nTotal; i++ {
		cols, vals := lap.RowNNZ(i)
		diagDone := !p.isLabeled[i]
		for k, j := range cols {
			if !diagDone && j >= i {
				if j != i {
					indices = append(indices, i)
					lapVal = append(lapVal, 0)
					vAdd = append(vAdd, 1)
				}
				diagDone = true
			}
			indices = append(indices, j)
			lapVal = append(lapVal, vals[k])
			if j == i && p.isLabeled[i] {
				vAdd = append(vAdd, 1)
			} else {
				vAdd = append(vAdd, 0)
			}
		}
		if !diagDone {
			indices = append(indices, i)
			lapVal = append(lapVal, 0)
			vAdd = append(vAdd, 1)
		}
		indptr[i+1] = len(indices)
	}
	data := make([]float64, len(indices))
	// The CSR wrapper aliases data, so each λ is a pure in-place refill; the
	// structure is validated exactly once for the whole path.
	a, err := sparse.NewCSR(nTotal, nTotal, indptr, indices, data)
	if err != nil {
		return nil, fmt.Errorf("core: lambda sweep assembly: %w", err)
	}

	// One preconditioner, workspace and solution buffer persist across the
	// path: each λ > 0 solve refreshes jac, warm-starts from — and
	// overwrites — xbuf.
	var jac *precond.Jacobi // built at the first λ > 0
	ws := sparse.GetWorkspace(nTotal)
	defer ws.Release()
	xbuf := make([]float64, nTotal)
	var warm []float64 // nil before the first λ > 0 solve

	out := make([]LambdaPathPoint, 0, len(lambdas))
	for _, l := range lambdas {
		if l == 0 {
			sol, err := SolveHard(p, opts...)
			if err != nil {
				return nil, fmt.Errorf("core: lambda sweep at λ=0: %w", err)
			}
			out = append(out, LambdaPathPoint{Lambda: 0, Solution: sol})
			continue
		}
		for k := range data {
			data[k] = l*lapVal[k] + vAdd[k]
		}
		if jac == nil {
			jac, err = precond.NewJacobi(a)
		} else {
			err = jac.Update(a)
		}
		if err != nil {
			return nil, fmt.Errorf("core: lambda sweep at λ=%v: %w: %w", l, ErrSolver, err)
		}
		f, res, err := sparse.PCG(a, rhs, sparse.PCGOptions{
			CGOptions: sparse.CGOptions{
				Tol:     cfg.tol,
				MaxIter: cfg.maxIter,
				X0:      warm,
				Workers: cfg.workers,
				Ctx:     cfg.ctx,
			},
			M:   jac,
			Dst: xbuf,
			Ws:  ws,
		})
		if err == nil && !finiteVec(f) {
			err = fmt.Errorf("core: CG produced non-finite values: %w", mat.ErrSingular)
		}
		if err != nil {
			if cfg.ctx != nil && cfg.ctx.Err() != nil {
				return nil, cfg.ctx.Err()
			}
			return nil, fmt.Errorf("core: lambda sweep at λ=%v: %w: %w", l, ErrSolver, err)
		}
		warm = f // f aliases xbuf
		fu := make([]float64, p.M())
		for k, u := range p.unlabeled {
			fu[k] = f[u]
		}
		full := make([]float64, len(f))
		copy(full, f)
		out = append(out, LambdaPathPoint{Lambda: l, Solution: &Solution{
			F:          full,
			FUnlabeled: fu,
			Lambda:     l,
			Method:     MethodCG,
			Iterations: res.Iterations,
			Residual:   res.Residual,
			Precond:    "jacobi",
		}})
	}
	return out, nil
}

// LambdaPath solves the soft criterion for each λ in lambdas (0 allowed; it
// yields the hard solution) and returns the solutions in order, calling
// SolveSoft independently per λ. SoftSweep is the performance-oriented
// variant: shared assembly and warm-started CG across the path.
func LambdaPath(p *Problem, lambdas []float64, opts ...SolveOption) ([]LambdaPathPoint, error) {
	if len(lambdas) == 0 {
		return nil, fmt.Errorf("core: empty lambda path: %w", ErrParam)
	}
	out := make([]LambdaPathPoint, 0, len(lambdas))
	for _, l := range lambdas {
		sol, err := SolveSoft(p, l, opts...)
		if err != nil {
			return nil, fmt.Errorf("core: lambda path at λ=%v: %w", l, err)
		}
		out = append(out, LambdaPathPoint{Lambda: l, Solution: sol})
	}
	return out, nil
}
