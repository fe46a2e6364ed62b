package graphssl

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sparse"
)

// FitGraph solves the selected criterion on a caller-supplied similarity
// matrix instead of building a graph from points — the entry point for
// non-vector data (strings, sequences, precomputed kernels). w must be
// symmetric with finite, non-negative entries, and y finite; anything else
// fails with ErrParam. labeled and y follow the same conventions as Fit
// (labeled = nil labels the first len(y) nodes).
//
// Kernel and bandwidth options are ignored (the graph is given); λ and
// the solver options of Fit (WithSolver, WithAutoCutoff, WithContext and
// the rest) apply, and a WithDiagnostics report is reset and filled as
// Fit fills it, with graph, problem and solve stages.
func FitGraph(w *sparse.CSR, y []float64, labeled []int, opts ...Option) (res *Result, err error) {
	cfg := newConfig(opts)
	if r := cfg.report; r != nil {
		defer func() {
			if err != nil {
				r.Err = err.Error()
			}
		}()
	}
	if err := ctxErr(cfg.ctx); err != nil {
		return nil, err
	}
	if cfg.lambda < 0 {
		return nil, fmt.Errorf("graphssl: λ=%v: %w", cfg.lambda, ErrParam)
	}
	if err := checkWeights(w); err != nil {
		return nil, err
	}
	if err := checkResponses(y); err != nil {
		return nil, err
	}
	graphStart := time.Now()
	g, err := graph.FromWeights(w)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParam, err)
	}
	cfg.report.addStage("graph", time.Since(graphStart))
	problemStart := time.Now()
	if labeled == nil {
		if len(y) >= g.N() {
			return nil, fmt.Errorf("graphssl: %d responses for %d nodes leaves nothing unlabeled: %w", len(y), g.N(), ErrParam)
		}
		labeled = make([]int, len(y))
		for i := range labeled {
			labeled[i] = i
		}
	}
	p, err := core.NewProblem(g, labeled, y)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParam, err)
	}
	cfg.report.addStage("problem", time.Since(problemStart))
	solveStart := time.Now()
	sol, err := solveExact(p, cfg)
	if err != nil {
		return nil, translateCoreErr(err)
	}
	cfg.report.addStage("solve", time.Since(solveStart))
	cfg.report.fromSolution(sol)
	return &Result{
		Scores:          sol.F,
		Labeled:         p.Labeled(),
		Unlabeled:       p.Unlabeled(),
		UnlabeledScores: sol.FUnlabeled,
		Lambda:          cfg.lambda,
		Solver:          sol.Method,
		Iterations:      sol.Iterations,
		Residual:        sol.Residual,
		GraphStats:      g.Summary(),
	}, nil
}

// checkWeights rejects a negative or non-finite similarity with ErrParam.
// Non-negative weights make the hard system D22−W22 and the soft system
// V + λL symmetric M-matrices, which the Cholesky and CG backends need.
func checkWeights(w *sparse.CSR) error {
	for i := 0; i < w.Rows(); i++ {
		cols, vals := w.RowNNZ(i)
		for k, v := range vals {
			if !(v >= 0) || math.IsInf(v, 1) {
				return fmt.Errorf("graphssl: weight (%d,%d) is %v: %w", i, cols[k], v, ErrParam)
			}
		}
	}
	return nil
}
