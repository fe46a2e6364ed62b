package graphssl

import (
	"time"

	"repro/internal/core"
	"repro/internal/mat"
)

// MulticlassResult is a fitted K-way transductive model.
type MulticlassResult struct {
	// Classes is the sorted class-id axis of Scores' columns.
	Classes []int
	// Unlabeled are the predicted point indices (ascending).
	Unlabeled []int
	// Scores is (#unlabeled)×(#classes) one-vs-rest criterion scores.
	Scores *mat.Dense
	// Predicted is the argmax class per unlabeled point.
	Predicted []int
	// Lambda is the criterion parameter used.
	Lambda float64
	// Bandwidth is the kernel bandwidth actually used.
	Bandwidth float64
}

// FitMulticlass fits a K-way one-vs-rest model: one criterion solve per
// class indicator, argmax prediction, optionally class-mass-normalized
// (Zhu et al.'s CMN) against the labeled class frequencies.
//
// labels holds non-negative class ids aligned with labeled; labeled = nil
// uses the paper's layout (first len(labels) points labeled). The solver
// options of Fit (WithSolver, WithAutoCutoff, WithContext and the rest)
// reach every class solve, and a WithDiagnostics report gets the resolved
// bandwidth and the times of the bandwidth, graph, problem and solve
// stages.
func FitMulticlass(x [][]float64, labels []int, labeled []int, normalize bool, opts ...Option) (*MulticlassResult, error) {
	y := make([]float64, len(labels)) // placeholder responses for prepare
	cfg := newConfig(opts)
	p, bw, _, err := prepare(x, y, labeled, cfg)
	if err != nil {
		return nil, err
	}
	mp, err := core.BuildMulticlass(p, labels)
	if err != nil {
		return nil, translateCoreErr(err)
	}
	solveStart := time.Now()
	sol, err := mp.Solve(cfg.lambda, normalize, coreSolveOptions(cfg)...)
	if err != nil {
		return nil, translateCoreErr(err)
	}
	cfg.report.addStage("solve", time.Since(solveStart))
	if cfg.report != nil {
		cfg.report.Bandwidth = bw
	}
	return &MulticlassResult{
		Classes:   sol.Classes,
		Unlabeled: p.Unlabeled(),
		Scores:    sol.Scores,
		Predicted: sol.Predicted,
		Lambda:    cfg.lambda,
		Bandwidth: bw,
	}, nil
}

// Diagnostics re-exports the consistency diagnostics of Theorem II.1's
// proof (see internal/core.Diagnostics).
type Diagnostics = core.Diagnostics

// Diagnose builds the problem exactly as Fit would and computes the
// proof-driven consistency diagnostics: the unlabeled-mass ratio that
// bounds the g-term, and the empirical gap between the hard criterion and
// the Nadaraya–Watson estimator.
func Diagnose(x [][]float64, y []float64, labeled []int, opts ...Option) (*Diagnostics, error) {
	p, _, _, err := prepare(x, y, labeled, newConfig(opts))
	if err != nil {
		return nil, err
	}
	d, err := core.Diagnose(p)
	if err != nil {
		return nil, translateCoreErr(err)
	}
	return d, nil
}
