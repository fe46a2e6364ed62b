package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/mat"
	"repro/internal/sparse"
)

// Method selects the linear-algebra backend for a solve.
type Method int

// Available solve methods.
const (
	// MethodAuto plans a deterministic backend chain from system size and a
	// pre-solve health probe: dense Cholesky at or below the auto cutoff,
	// CG-first with a Cholesky fallback above it, and CG alone above
	// maxDenseUnknowns (see planAuto).
	MethodAuto Method = iota + 1
	// MethodCholesky forces the dense Cholesky factorization.
	MethodCholesky
	// MethodCG uses sparse conjugate gradient.
	MethodCG
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case MethodAuto:
		return "auto"
	case MethodCholesky:
		return "cholesky"
	case MethodCG:
		return "cg"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Precond selects the preconditioner of CG-backed solves.
type Precond int

// Available preconditioners.
const (
	// PrecondAuto (the default) is Jacobi at every size: it solves bit for
	// bit as PrecondJacobi does. IC(0) with RCM saves about threefold in
	// iterations but loses more to its set-up and serial triangular solves.
	PrecondAuto Precond = iota
	// PrecondJacobi forces diagonal scaling.
	PrecondJacobi
	// PrecondIC0 forces zero-fill incomplete Cholesky wrapped in an RCM
	// reordering; the factorization falls back to Jacobi on breakdown.
	PrecondIC0
	// PrecondNone runs unpreconditioned CG.
	PrecondNone
)

// String returns the preconditioner name.
func (p Precond) String() string {
	switch p {
	case PrecondAuto:
		return "auto"
	case PrecondJacobi:
		return "jacobi"
	case PrecondIC0:
		return "ic0"
	case PrecondNone:
		return "none"
	default:
		return fmt.Sprintf("Precond(%d)", int(p))
	}
}

// SolveOption customizes a solve.
type SolveOption interface {
	apply(*solveConfig)
}

type solveConfig struct {
	method     Method
	tol        float64
	maxIter    int
	workers    int
	ctx        context.Context
	autoCutoff int
	probe      bool
	precond    Precond
}

type solveOptionFunc func(*solveConfig)

func (f solveOptionFunc) apply(c *solveConfig) { f(c) }

// WithMethod selects the backend.
func WithMethod(m Method) SolveOption {
	return solveOptionFunc(func(c *solveConfig) { c.method = m })
}

// WithTolerance sets the convergence tolerance of iterative backends.
func WithTolerance(tol float64) SolveOption {
	return solveOptionFunc(func(c *solveConfig) { c.tol = tol })
}

// WithMaxIter caps the iterations of iterative backends.
func WithMaxIter(n int) SolveOption {
	return solveOptionFunc(func(c *solveConfig) { c.maxIter = n })
}

// WithWorkers sets the worker count for the parallel stages of a solve
// (matrix-vector products in CG and per-class right-hand sides in
// multiclass). n <= 0 (the default) selects runtime.GOMAXPROCS(0); n == 1
// forces the serial path. Solutions are bitwise-identical across worker
// counts.
func WithWorkers(n int) SolveOption {
	return solveOptionFunc(func(c *solveConfig) { c.workers = n })
}

// WithContext attaches a context to the solve. CG checks it once per
// iteration and aborts with ctx.Err() within one iteration of
// cancellation; direct backends check it between pipeline stages.
// Cancellation is terminal — it never triggers a fallback.
func WithContext(ctx context.Context) SolveOption {
	return solveOptionFunc(func(c *solveConfig) { c.ctx = ctx })
}

// WithAutoCutoff tunes the system size at and below which MethodAuto solves
// with a direct dense factorization instead of starting the chain at
// preconditioned CG (default 2048). Production deployments with very sparse
// graphs may lower it; tests use small values to exercise the iterative
// chain. n <= 0 restores the default.
func WithAutoCutoff(n int) SolveOption {
	return solveOptionFunc(func(c *solveConfig) { c.autoCutoff = n })
}

// WithPreconditioner selects the preconditioner of CG-backed solves
// (default PrecondAuto). It affects only how fast CG converges, never what
// it converges to: each choice is deterministic, and results stay
// bitwise-identical across worker counts. PrecondJacobi reproduces the
// historical solve path bit for bit.
func WithPreconditioner(p Precond) SolveOption {
	return solveOptionFunc(func(c *solveConfig) { c.precond = p })
}

// WithHealthProbe forces the pre-solve health probe to run where the
// MethodAuto plan does not read it — at or below the auto cutoff, and
// above maxDenseUnknowns, where the plan is CG alone — so the resulting
// trace carries conditioning diagnostics. Probing never changes the
// solution; it only informs the plan and the report.
func WithHealthProbe() SolveOption {
	return solveOptionFunc(func(c *solveConfig) { c.probe = true })
}

func newSolveConfig(opts []SolveOption) (solveConfig, error) {
	c := solveConfig{method: MethodAuto, tol: 1e-10, maxIter: 0, workers: 0}
	for _, o := range opts {
		o.apply(&c)
	}
	return c, explicitPrecond(c.precond)
}

// Solution is the outcome of a criterion solve.
type Solution struct {
	// F is the full score vector over all nodes. For the hard criterion,
	// labeled entries equal the observed responses exactly; for the soft
	// criterion they are the fitted (shrunk) values.
	F []float64
	// FUnlabeled is F restricted to the unlabeled nodes, aligned with
	// Problem.Unlabeled().
	FUnlabeled []float64
	// Lambda is the tuning parameter used (0 for the hard criterion).
	Lambda float64
	// Method is the backend that produced the solution.
	Method Method
	// Iterations reports iterative-backend work (0 for direct solves).
	Iterations int
	// Residual is the final relative residual of iterative backends.
	Residual float64
	// Precond identifies the preconditioner of CG-backed solves ("jacobi",
	// "ic0+rcm", "jacobi+rcm" after an IC(0) breakdown, "none"); empty for
	// direct backends.
	Precond string
	// PrecondSetup is the wall time spent building the preconditioner and
	// any reordering (reporting only; zero for Jacobi).
	PrecondSetup time.Duration
	// Trace documents the backend pipeline for MethodAuto solves (health
	// probe, plan, attempts, fallbacks); nil for explicitly chosen
	// backends.
	Trace *SolveTrace
}

// hardSystem carries the blocks of the hard-criterion linear system
// A f_U = b with A = D22 − W22 and b = W21 Y (paper Eq. 5).
type hardSystem struct {
	a   *sparse.CSR // m×m, SPD when every unlabeled component touches a label
	b   []float64   // m
	w22 *sparse.CSR // m×m similarity block among unlabeled nodes
	d22 []float64   // full degrees of unlabeled nodes
	pos []int       // pos[nodeIndex] = position among unlabeled, -1 otherwise
}

// buildHardSystem extracts the block system from the problem. A = D22 − W22
// and W22 are written straight into CSR, a count pass sizing each row and a
// fill pass writing it. Unlabeled nodes are ascending, so pos keeps each
// row's column order, and A's diagonal goes in at its sorted position; a
// self-loop w_uu meets it there as the single entry deg[u] − w_uu.
func buildHardSystem(p *Problem) (*hardSystem, error) {
	if err := p.CheckCoverage(); err != nil {
		return nil, err
	}
	w := p.g.Weights()
	nTotal := p.g.N()
	m := p.M()
	pos := make([]int, nTotal)
	for i := range pos {
		pos[i] = -1
	}
	for k, u := range p.unlabeled {
		pos[u] = k
	}
	yAt := make([]float64, nTotal)
	for k, l := range p.labeled {
		yAt[l] = p.y[k]
	}

	deg := w.RowSums()
	aPtr := make([]int, m+1)
	wPtr := make([]int, m+1)
	for k, u := range p.unlabeled {
		cols, vals := w.RowNNZ(u)
		nw, loop := 0, false
		for c, j := range cols {
			if vals[c] != 0 && !p.isLabeled[j] {
				nw++
				loop = loop || j == u
			}
		}
		na := nw
		if !loop && deg[u] != 0 {
			na++
		}
		aPtr[k+1] = aPtr[k] + na
		wPtr[k+1] = wPtr[k] + nw
	}
	aIdx, aVal := make([]int, aPtr[m]), make([]float64, aPtr[m])
	wIdx, wVal := make([]int, wPtr[m]), make([]float64, wPtr[m])
	b := make([]float64, m)
	d22 := make([]float64, m)
	for k, u := range p.unlabeled {
		d22[k] = deg[u]
		at, wt := aPtr[k], wPtr[k]
		diag := deg[u] != 0 // a zero degree stores no diagonal entry
		cols, vals := w.RowNNZ(u)
		for c, j := range cols {
			v := vals[c]
			if v == 0 {
				continue
			}
			if p.isLabeled[j] {
				b[k] += v * yAt[j]
				continue
			}
			q := pos[j]
			wIdx[wt], wVal[wt] = q, v
			wt++
			if diag && q > k {
				aIdx[at], aVal[at] = k, deg[u]
				at++
				diag = false
			}
			if q == k {
				aIdx[at], aVal[at] = k, deg[u]-v
				diag = false
			} else {
				aIdx[at], aVal[at] = q, -v
			}
			at++
		}
		if diag {
			aIdx[at], aVal[at] = k, deg[u]
		}
	}
	a, err := sparse.NewCSR(m, m, aPtr, aIdx, aVal)
	if err != nil {
		return nil, err
	}
	w22, err := sparse.NewCSR(m, m, wPtr, wIdx, wVal)
	if err != nil {
		return nil, err
	}
	return &hardSystem{a: a, b: b, w22: w22, d22: d22, pos: pos}, nil
}

// explicitMethod rejects a WithMethod value that runBackend cannot run:
// anything but Cholesky and CG.
func explicitMethod(m Method) error {
	switch m {
	case MethodCholesky, MethodCG:
		return nil
	default:
		return fmt.Errorf("core: unknown method %d: %w", int(m), ErrParam)
	}
}

// explicitPrecond rejects preconditioner values outside the exported set,
// which solveCG would otherwise run as Jacobi.
func explicitPrecond(p Precond) error {
	switch p {
	case PrecondAuto, PrecondJacobi, PrecondIC0, PrecondNone:
		return nil
	default:
		return fmt.Errorf("core: unknown preconditioner %d: %w", int(p), ErrParam)
	}
}

// SolveHard computes the hard-criterion solution (Eq. 5):
// f_U = (D22 − W22)⁻¹ W21 Y, with f fixed to Y on labeled nodes.
func SolveHard(p *Problem, opts ...SolveOption) (*Solution, error) {
	cfg, err := newSolveConfig(opts)
	if err != nil {
		return nil, err
	}
	if err := ctxErr(cfg.ctx); err != nil {
		return nil, err
	}
	sys, err := buildHardSystem(p)
	if err != nil {
		return nil, err
	}
	var (
		fu     []float64
		res    sparse.SolveResult
		trace  *SolveTrace
		cgOut  cgOutcome
		method = cfg.method
	)
	switch cfg.method {
	case MethodAuto:
		fu, res, method, trace, err = runChain(cfg.ctx, sys.a, sys.b, cfg)
	default:
		if err := explicitMethod(cfg.method); err != nil {
			return nil, err
		}
		fu, res, cgOut, err = runBackend(cfg.ctx, cfg.method, sys.a, sys.b, cfg, 0)
	}
	if err == nil && !finiteVec(fu) {
		err = fmt.Errorf("core: %v produced non-finite values: %w", method, mat.ErrSingular)
	}
	if err != nil {
		if cfg.ctx != nil && cfg.ctx.Err() != nil {
			return nil, cfg.ctx.Err()
		}
		return nil, fmt.Errorf("core: hard solve (%v): %w: %w", cfg.method, ErrSolver, err)
	}
	sol := assembleSolution(p, fu, 0, method, res)
	sol.Trace = trace
	sol.Precond = cgOut.name
	sol.PrecondSetup = cgOut.setup
	applyTraceOutcome(sol, trace)
	return sol, nil
}

// assembleSolution merges unlabeled scores with labeled values into the full
// score vector. For λ=0 (hard criterion) labeled entries are the responses.
func assembleSolution(p *Problem, fu []float64, lambda float64, method Method, res sparse.SolveResult) *Solution {
	full := make([]float64, p.g.N())
	for k, l := range p.labeled {
		full[l] = p.y[k]
	}
	for k, u := range p.unlabeled {
		full[u] = fu[k]
	}
	out := make([]float64, len(fu))
	copy(out, fu)
	return &Solution{
		F:          full,
		FUnlabeled: out,
		Lambda:     lambda,
		Method:     method,
		Iterations: res.Iterations,
		Residual:   res.Residual,
	}
}
