package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/mat"
	"repro/internal/sparse"
)

// Health is the pre-solve numerical-health probe of a symmetric system
// A x = b. Every field is a deterministic function of the matrix alone
// (the spectral estimate is a fixed-start Lanczos iteration whose products
// are bitwise the same for every worker count), so backend decisions
// derived from it are reproducible run to run and across worker counts.
type Health struct {
	// Unknowns is the system size.
	Unknowns int
	// NNZ is the number of stored entries.
	NNZ int
	// ZeroDiagonal reports a zero diagonal entry, which rules out Jacobi
	// preconditioning and signals a singular leading block.
	ZeroDiagonal bool
	// MinDiagDominance is min over rows of a_ii / Σ_{j≠i}|a_ij|
	// (+Inf when every row is purely diagonal). Values well above 1 mean
	// strict diagonal dominance, the classic convergence regime of the
	// paper's iterative solvers.
	MinDiagDominance float64
	// MeanDiagDominance is the mean of the same per-row ratio (rows with no
	// off-diagonal mass contribute 1).
	MeanDiagDominance float64
	// JacobiSpectralRadius estimates ρ(I − D^{-1/2} A D^{-1/2}), the
	// contraction factor of diagonally preconditioned iterations, by at
	// most 50 Lanczos steps. Ritz values lie inside the spectrum, so the
	// estimate approaches ρ from below. Values ≥ 1 mean the preconditioned
	// system is not positive definite within estimation accuracy.
	JacobiSpectralRadius float64
	// ConditionProxy estimates the diagonally preconditioned condition
	// number as (1+ρ)/(1−ρ), from below as ρ is; +Inf when ρ ≥ 1.
	ConditionProxy float64
	// Warnings are human-readable flags raised by the probe.
	Warnings []string
}

// ProbeHealth inspects a square symmetric system matrix and returns its
// health report. The probe costs O(nnz) per Lanczos step and is pure:
// equal matrices produce equal reports. Its matrix-vector products run on
// GOMAXPROCS workers; the report is the same for every worker count.
func ProbeHealth(a *sparse.CSR) (*Health, error) { return probeHealth(a, 0) }

// probeHealth is ProbeHealth on the given workers: the solve's, inside the
// auto chain.
func probeHealth(a *sparse.CSR, workers int) (*Health, error) {
	n, c := a.Dims()
	if n != c {
		return nil, fmt.Errorf("core: health probe needs a square matrix, got %dx%d: %w", n, c, ErrParam)
	}
	h := &Health{Unknowns: n, NNZ: a.NNZ(), MinDiagDominance: math.Inf(1)}
	if n == 0 {
		return h, nil
	}

	diag := a.Diag()
	var domSum float64
	for i := 0; i < n; i++ {
		if diag[i] == 0 {
			h.ZeroDiagonal = true
		}
		cols, vals := a.RowNNZ(i)
		var off float64
		for k, j := range cols {
			if j != i {
				off += math.Abs(vals[k])
			}
		}
		ratio := 1.0
		if off > 0 {
			ratio = diag[i] / off
		} else if diag[i] > 0 {
			ratio = math.Inf(1)
		}
		if ratio < h.MinDiagDominance {
			h.MinDiagDominance = ratio
		}
		if math.IsInf(ratio, 1) {
			ratio = 1
		}
		domSum += ratio
	}
	h.MeanDiagDominance = domSum / float64(n)

	if h.ZeroDiagonal {
		h.JacobiSpectralRadius = math.Inf(1)
		h.ConditionProxy = math.Inf(1)
		h.Warnings = append(h.Warnings, "zero diagonal entry: system is singular or a node is isolated")
		return h, nil
	}

	// S = I − D^{-1/2} A D^{-1/2} is symmetric, and ρ(S) < 1 iff the
	// diagonally scaled system is positive definite with eigenvalues in
	// (1−ρ, 1+ρ). LanczosRadius applies S without forming it.
	invSqrt := make([]float64, n)
	for i, d := range diag {
		if d < 0 {
			h.Warnings = append(h.Warnings, "negative diagonal entry: system is not positive definite")
			h.JacobiSpectralRadius = math.Inf(1)
			h.ConditionProxy = math.Inf(1)
			return h, nil
		}
		invSqrt[i] = 1 / math.Sqrt(d)
	}
	rho, err := sparse.LanczosRadius(a, invSqrt, 1, workers)
	if err != nil {
		return nil, err
	}
	h.JacobiSpectralRadius = rho
	if rho >= 1 {
		h.ConditionProxy = math.Inf(1)
		h.Warnings = append(h.Warnings, fmt.Sprintf("preconditioned spectral radius %.4g >= 1: system is near-singular", rho))
	} else {
		h.ConditionProxy = (1 + rho) / (1 - rho)
	}
	if h.MinDiagDominance < 1e-8 {
		h.Warnings = append(h.Warnings, fmt.Sprintf("weak diagonal dominance (min ratio %.3g): iterative sweeps may converge slowly", h.MinDiagDominance))
	}
	if !math.IsInf(h.ConditionProxy, 1) && h.ConditionProxy > condProxyCGMax {
		h.Warnings = append(h.Warnings, fmt.Sprintf("condition proxy %.3g beyond CG comfort zone", h.ConditionProxy))
	}
	return h, nil
}

// FallbackEvent records one escalation of the backend chain.
type FallbackEvent struct {
	// From is the backend that failed; To the one tried next.
	From, To Method
	// Reason is the failure that triggered the escalation.
	Reason string
}

// Attempt is one backend try inside a solve.
type Attempt struct {
	// Method is the backend tried.
	Method Method
	// Iterations and Residual report iterative work (zero for direct).
	Iterations int
	Residual   float64
	// Err is the failure message, empty on success.
	Err string
	// Duration is the attempt's wall time (reporting only; never feeds
	// decisions).
	Duration time.Duration
	// Precond identifies the preconditioner of CG attempts ("jacobi",
	// "ic0+rcm", "jacobi+rcm", "none"); empty for direct backends.
	Precond string
	// PrecondSetup is the preconditioner construction wall time (reporting
	// only).
	PrecondSetup time.Duration
}

// SolveTrace documents how a solve arrived at its answer: the health probe
// (when run), the backend plan decided up front, every attempt, and the
// fallbacks taken. Everything except Duration is deterministic.
type SolveTrace struct {
	// Health is the pre-solve probe; nil when the plan did not need it.
	Health *Health
	// Plan is the ordered backend chain chosen before solving.
	Plan []Method
	// PlanReason explains the choice.
	PlanReason string
	// Attempts are the backends tried, in order.
	Attempts []Attempt
	// Fallbacks are the escalations taken (empty on the happy path).
	Fallbacks []FallbackEvent
}

const (
	// defaultAutoCutoff is the system size at and below which MethodAuto
	// solves densely: direct factorization of these sizes is fast,
	// bit-reproducible, and immune to conditioning surprises. Above it the
	// chain starts at preconditioned CG (the sparse systems of this repo
	// solve orders of magnitude faster that way) and escalates on failure.
	defaultAutoCutoff = 2048
	// condProxyCGMax demotes CG from the head of the auto chain when the
	// health probe estimates the preconditioned condition number above it.
	condProxyCGMax = 1e10
	// chainStagnationWindow is the residual-history window handed to CG
	// when it runs as head of the auto chain, so pathological systems
	// escalate instead of spinning to MaxIter.
	chainStagnationWindow = 50
	// maxDenseUnknowns caps the systems above the cutoff that the auto
	// chain may densify. One dense copy of n unknowns is 8n² bytes, 512 MiB
	// at this size, and its factorization costs O(n³) with no cancellation
	// point; above the cap a CG failure ends the solve instead.
	maxDenseUnknowns = 8192
)

// planAuto decides the MethodAuto backend chain. It is a pure function of
// the system size, the cutoff, and the health probe, which keeps every
// fallback decision reproducible.
func planAuto(h *Health, n, cutoff int) ([]Method, string) {
	if cutoff <= 0 {
		cutoff = defaultAutoCutoff
	}
	if n <= cutoff {
		return []Method{MethodCholesky}, fmt.Sprintf("n=%d <= cutoff %d: direct dense", n, cutoff)
	}
	if n > maxDenseUnknowns {
		return []Method{MethodCG}, "above the dense cap of 8192 unknowns: preconditioned CG only"
	}
	if h == nil {
		return []Method{MethodCG, MethodCholesky}, "no probe: iterative first"
	}
	if h.ZeroDiagonal {
		return []Method{MethodCholesky}, "zero diagonal: CG preconditioner undefined"
	}
	if h.JacobiSpectralRadius >= 1 {
		return []Method{MethodCholesky}, "preconditioned spectral radius >= 1: CG would stagnate"
	}
	if h.ConditionProxy > condProxyCGMax {
		return []Method{MethodCholesky}, fmt.Sprintf("condition proxy %.3g > %.0g: direct dense", h.ConditionProxy, float64(condProxyCGMax))
	}
	return []Method{MethodCG, MethodCholesky}, "large well-conditioned system: preconditioned CG first"
}

// runChain executes the MethodAuto pipeline on A x = b: probe (where the
// plan reads it: above the cutoff and at most maxDenseUnknowns, or under
// WithHealthProbe), plan, then attempt each backend in order, escalating
// on failure and recording everything in the returned trace.
// Cancellation is never escalated: a done context aborts the chain
// immediately.
func runChain(ctx context.Context, a *sparse.CSR, b []float64, cfg solveConfig) ([]float64, sparse.SolveResult, Method, *SolveTrace, error) {
	n := a.Rows()
	cutoff := cfg.autoCutoff
	if cutoff <= 0 {
		cutoff = defaultAutoCutoff
	}
	trace := &SolveTrace{}
	if (n > cutoff && n <= maxDenseUnknowns) || cfg.probe {
		h, err := probeHealth(a, cfg.workers)
		if err != nil {
			return nil, sparse.SolveResult{}, MethodAuto, trace, err
		}
		trace.Health = h
	}
	trace.Plan, trace.PlanReason = planAuto(trace.Health, n, cutoff)

	var lastErr error
	for i, m := range trace.Plan {
		if err := ctxErr(ctx); err != nil {
			return nil, sparse.SolveResult{}, m, trace, err
		}
		if i > 0 {
			trace.Fallbacks = append(trace.Fallbacks, FallbackEvent{
				From:   trace.Plan[i-1],
				To:     m,
				Reason: lastErr.Error(),
			})
		}
		start := time.Now()
		x, res, out, err := runBackend(ctx, m, a, b, cfg, chainStagnationWindow)
		att := Attempt{
			Method:       m,
			Iterations:   res.Iterations,
			Residual:     res.Residual,
			Duration:     time.Since(start),
			Precond:      out.name,
			PrecondSetup: out.setup,
		}
		if err != nil {
			att.Err = err.Error()
		}
		if err == nil && !finiteVec(x) {
			// A factorization can "succeed" on subnormal pivots and emit
			// Inf/NaN garbage; treat that as a backend failure so the chain
			// escalates (and the terminal error is typed singular).
			err = fmt.Errorf("core: backend %v produced non-finite values: %w", m, mat.ErrSingular)
			att.Err = err.Error()
		}
		trace.Attempts = append(trace.Attempts, att)
		if err == nil {
			return x, res, m, trace, nil
		}
		if ctxDone(ctx, err) {
			return nil, res, m, trace, err
		}
		lastErr = err
	}
	return nil, sparse.SolveResult{}, MethodAuto, trace, fmt.Errorf("core: all backends failed (%v): %w", trace.Plan, lastErr)
}

// runBackend executes one backend: for the auto chain, and for an
// explicit WithMethod in SolveHard and SolveSoft. CG runs through solveCG
// (Jacobi unless PrecondIC0 or PrecondNone is asked for) with the given
// stagnation window — chainStagnationWindow in the chain, so pathological
// systems fail fast and escalate, and 0 (off) for an explicit method;
// direct backends densify and factorize.
func runBackend(ctx context.Context, m Method, a *sparse.CSR, b []float64, cfg solveConfig, stagnationWindow int) ([]float64, sparse.SolveResult, cgOutcome, error) {
	switch m {
	case MethodCG:
		return solveCG(ctx, a, b, cfg, stagnationWindow)
	case MethodCholesky:
		ch, err := mat.NewCholesky(a.ToDense())
		if err != nil {
			return nil, sparse.SolveResult{}, cgOutcome{}, err
		}
		x, err := ch.Solve(b)
		return x, sparse.SolveResult{}, cgOutcome{}, err
	default:
		return nil, sparse.SolveResult{}, cgOutcome{}, fmt.Errorf("core: backend %v not usable in auto chain: %w", m, ErrParam)
	}
}

// finiteVec reports whether every entry of v is finite.
func finiteVec(v []float64) bool {
	for _, e := range v {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			return false
		}
	}
	return true
}

// ctxErr reports the context's error, tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// ctxDone reports whether err is the context's own termination error.
func ctxDone(ctx context.Context, err error) bool {
	if ctx == nil || err == nil {
		return false
	}
	return ctx.Err() != nil
}
