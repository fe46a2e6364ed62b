package graphssl

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sparse"
)

// FitGraph solves the selected criterion on a caller-supplied similarity
// matrix instead of building a graph from points — the entry point for
// non-vector data (strings, sequences, precomputed kernels). w must be
// symmetric with non-negative entries; labeled and y follow the same
// conventions as Fit (labeled = nil labels the first len(y) nodes).
//
// Kernel and bandwidth options are ignored (the graph is given); λ and
// solver options apply.
func FitGraph(w *sparse.CSR, y []float64, labeled []int, opts ...Option) (*Result, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o.apply(&cfg)
	}
	if cfg.lambda < 0 {
		return nil, fmt.Errorf("graphssl: λ=%v: %w", cfg.lambda, ErrParam)
	}
	g, err := graph.FromWeights(w)
	if err != nil {
		return nil, fmt.Errorf("graphssl: %w: %v", ErrParam, err)
	}
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
		return nil, fmt.Errorf("graphssl: %w: %v", ErrParam, err)
	}
	sol, err := core.SolveSoft(p, cfg.lambda,
		core.WithMethod(cfg.solver),
		core.WithTolerance(cfg.tol),
		core.WithMaxIter(cfg.maxIter),
		core.WithWorkers(cfg.workers),
		core.WithPreconditioner(cfg.precond))
	if err != nil {
		return nil, translateCoreErr(err)
	}
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
