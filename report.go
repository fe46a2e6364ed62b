package graphssl

import (
	"context"
	"errors"
	"expvar"
	"time"

	"repro/internal/core"
)

// Stage is one timed phase of a fit.
type Stage struct {
	// Name identifies the phase ("bandwidth", "graph", "problem", "solve").
	Name string
	// Duration is the phase's wall time.
	Duration time.Duration
}

// Fallback records one backend escalation taken during a solve.
type Fallback struct {
	// From is the backend that failed, To the one tried next.
	From, To Solver
	// Reason is the failure that triggered the escalation.
	Reason string
}

// Health summarizes the pre-solve numerical-health probe of the linear
// system. All fields are deterministic functions of the input data; see
// Report for how to read them.
type Health struct {
	// Unknowns is the linear-system size, NNZ its stored entries.
	Unknowns, NNZ int
	// ZeroDiagonal flags a singular diagonal (an isolated node's row).
	ZeroDiagonal bool
	// MinDiagDominance / MeanDiagDominance are the min and mean per-row
	// ratio of diagonal to off-diagonal absolute mass; values above 1 mean
	// diagonal dominance, the classic iterative-convergence regime.
	MinDiagDominance, MeanDiagDominance float64
	// SpectralRadius estimates the contraction factor of diagonally
	// preconditioned iterations (≥ 1 flags a near-singular system), from
	// below: it is an extreme Ritz value, inside the spectrum.
	SpectralRadius float64
	// ConditionProxy estimates the preconditioned condition number as
	// (1+ρ)/(1−ρ), from below as ρ is.
	ConditionProxy float64
}

// RefreshInfo documents one streaming refresh (see the stream package):
// which rung of the escalation ladder produced the accepted solution and
// how much work it took.
type RefreshInfo struct {
	// Kind is the accepted rung: "none", "label-values", "warm-pcg", or
	// "full-refit".
	Kind string
	// Solves and Iterations report the iterative work spent.
	Solves, Iterations int
	// Residual is the verified relative residual of the accepted solution
	// (0 for an exact refit).
	Residual float64
	// Escalated reports that a cheaper rung was abandoned; Reason says why.
	Escalated bool
	Reason    string
	// Applied edit counts since the previous refresh.
	Inserts, Deletes, NewLabels, ValueChanges int
}

// Report documents how a fit ran: per-stage wall clock, the backend chain
// and any fallbacks taken, iterative work, and the numerical-health
// warnings raised by the pre-solve probe. Request one with
// WithDiagnostics; the pointed-to value is overwritten by the fit.
//
// Wall-clock fields are for observability only — every solver decision in
// the pipeline is a pure function of the input data, so two runs over the
// same input produce identical Scores, Solver, Fallbacks, and Warnings.
type Report struct {
	// Stages holds the per-phase wall clock, in execution order.
	Stages []Stage
	// Bandwidth is the kernel bandwidth resolved for the fit.
	Bandwidth float64
	// Solver is the backend that produced the solution; Plan is the chain
	// the auto pipeline decided up front (nil for explicit backends), and
	// PlanReason explains the choice.
	Solver     Solver
	Plan       []Solver
	PlanReason string
	// Iterations and Residual report iterative-backend work.
	Iterations int
	Residual   float64
	// Precond identifies the preconditioner of CG-backed solves ("jacobi",
	// "ic0+rcm", "jacobi+rcm", "none"); empty for direct backends.
	// PrecondSetup is the wall time spent building it (reordering plus
	// factorization; zero for "jacobi" and "none").
	Precond      string
	PrecondSetup time.Duration
	// Fallbacks are the escalations taken; empty on the happy path.
	Fallbacks []Fallback
	// Health is the pre-solve probe of the solved system (nil when the
	// plan did not need it and diagnostics did not force it).
	Health *Health
	// Refresh documents the streaming refresh that produced the current
	// solution (nil for batch fits; see the stream package).
	Refresh *RefreshInfo
	// Warnings are human-readable numerical-health flags.
	Warnings []string
	// Err is the terminal error message, empty on success.
	Err string
}

// Total returns the summed wall clock of all recorded stages.
func (r *Report) Total() time.Duration {
	var t time.Duration
	for _, s := range r.Stages {
		t += s.Duration
	}
	return t
}

// addStage appends a timed stage; nil receivers (no diagnostics requested)
// are tolerated so call sites stay unconditional.
func (r *Report) addStage(name string, d time.Duration) {
	if r != nil {
		r.Stages = append(r.Stages, Stage{Name: name, Duration: d})
	}
}

// fromSolution copies a completed solve into the report: its backend,
// iterative work, preconditioner and solver trace.
func (r *Report) fromSolution(sol *core.Solution) {
	if r == nil {
		return
	}
	r.Solver = sol.Method
	r.Iterations = sol.Iterations
	r.Residual = sol.Residual
	r.Precond = sol.Precond
	r.PrecondSetup = sol.PrecondSetup
	tr := sol.Trace
	if tr == nil {
		return
	}
	r.Plan = append([]Solver(nil), tr.Plan...)
	r.PlanReason = tr.PlanReason
	for _, fb := range tr.Fallbacks {
		r.Fallbacks = append(r.Fallbacks, Fallback{From: fb.From, To: fb.To, Reason: fb.Reason})
	}
	if h := tr.Health; h != nil {
		r.Health = &Health{
			Unknowns:          h.Unknowns,
			NNZ:               h.NNZ,
			ZeroDiagonal:      h.ZeroDiagonal,
			MinDiagDominance:  h.MinDiagDominance,
			MeanDiagDominance: h.MeanDiagDominance,
			SpectralRadius:    h.JacobiSpectralRadius,
			ConditionProxy:    h.ConditionProxy,
		}
		r.Warnings = append(r.Warnings, h.Warnings...)
	}
}

// Package-level expvar counters, exported under the "graphssl." prefix for
// scraping via the standard expvar HTTP handler. They aggregate across all
// fits in the process.
var (
	fitsTotal           = expvar.NewInt("graphssl.fits_total")
	fitErrorsTotal      = expvar.NewInt("graphssl.fit_errors_total")
	fallbacksTotal      = expvar.NewInt("graphssl.fallbacks_total")
	cancellationsTotal  = expvar.NewInt("graphssl.cancellations_total")
	healthWarningsTotal = expvar.NewInt("graphssl.health_warnings_total")
	solverChosen        = expvar.NewMap("graphssl.solver_chosen")
	precondChosen       = expvar.NewMap("graphssl.precond_chosen")
	precondSetupNanos   = expvar.NewInt("graphssl.precond_setup_nanos_total")
	snapshotsTotal      = expvar.NewInt("graphssl.snapshots_total")
)

// countSnapshot updates the expvar counters from one successful Result
// snapshot (the serve subsystem's model-freeze hook).
func countSnapshot() {
	snapshotsTotal.Add(1)
}

// countFit updates the expvar counters from one finished fit.
func countFit(rep *Report, err error) {
	fitsTotal.Add(1)
	if rep != nil {
		fallbacksTotal.Add(int64(len(rep.Fallbacks)))
		healthWarningsTotal.Add(int64(len(rep.Warnings)))
		if err == nil {
			solverChosen.Add(rep.Solver.String(), 1)
			if rep.Precond != "" {
				precondChosen.Add(rep.Precond, 1)
				precondSetupNanos.Add(rep.PrecondSetup.Nanoseconds())
			}
		}
	}
	if err != nil {
		fitErrorsTotal.Add(1)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			cancellationsTotal.Add(1)
		}
	}
}
