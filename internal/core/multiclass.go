package core

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/parallel"
)

// MulticlassProblem is a transductive problem with K-way categorical
// responses, solved one-vs-rest: the hard (or soft) criterion is applied to
// each class-indicator column, and predictions take the argmax. This
// mirrors how the paper's COIL source benchmark (6 object classes) is
// handled before its binary reduction.
type MulticlassProblem struct {
	p       *Problem
	classes []int
	yClass  []int
}

// BuildMulticlass assembles a multiclass problem from a base graph problem
// (whose float responses are ignored) plus integer class labels aligned
// with the problem's labeled set. Class ids are arbitrary non-negative
// integers, not necessarily contiguous.
func BuildMulticlass(p *Problem, labels []int) (*MulticlassProblem, error) {
	if p == nil {
		return nil, fmt.Errorf("core: nil problem: %w", ErrParam)
	}
	if len(labels) != p.N() {
		return nil, fmt.Errorf("core: %d labels for %d labeled nodes: %w", len(labels), p.N(), ErrParam)
	}
	seen := make(map[int]bool)
	for _, c := range labels {
		if c < 0 {
			return nil, fmt.Errorf("core: negative class id %d: %w", c, ErrParam)
		}
		seen[c] = true
	}
	if len(seen) < 2 {
		return nil, fmt.Errorf("core: need at least 2 classes, got %d: %w", len(seen), ErrParam)
	}
	classes := make([]int, 0, len(seen))
	for c := range seen {
		classes = append(classes, c)
	}
	// Deterministic class order.
	for i := 1; i < len(classes); i++ {
		for j := i; j > 0 && classes[j] < classes[j-1]; j-- {
			classes[j], classes[j-1] = classes[j-1], classes[j]
		}
	}
	yc := make([]int, len(labels))
	copy(yc, labels)
	return &MulticlassProblem{p: p, classes: classes, yClass: yc}, nil
}

// Classes returns the sorted distinct class ids.
func (m *MulticlassProblem) Classes() []int {
	out := make([]int, len(m.classes))
	copy(out, m.classes)
	return out
}

// MulticlassSolution holds per-class scores and argmax predictions on the
// unlabeled nodes.
type MulticlassSolution struct {
	// Classes is the class-id axis of Scores' columns.
	Classes []int
	// Scores is (#unlabeled)×(#classes), aligned with Problem.Unlabeled().
	Scores *mat.Dense
	// Predicted holds the argmax class id per unlabeled node.
	Predicted []int
	// Lambda is the criterion parameter used.
	Lambda float64
}

// Solve runs the chosen criterion once per class indicator and combines the
// columns. With normalize=true each class column is rescaled by class mass
// normalization using the labeled class frequencies (Zhu et al.'s CMN),
// which corrects imbalanced class sizes.
//
// The per-class solves are independent (one right-hand side each against a
// shared read-only graph or factorization), so they run in parallel under
// WithWorkers; the per-class outputs land in fixed columns, keeping the
// result bitwise-identical across worker counts.
//
// At λ=0 the classes share one dense factorization of D22−W22 where the
// solve would be dense anyway: an explicit Cholesky, or MethodAuto at or
// below its cutoff. Elsewhere each class solves on its own, through
// the auto chain or the chosen method, and never densifies a system the
// auto chain would not.
func (m *MulticlassProblem) Solve(lambda float64, normalize bool, opts ...SolveOption) (*MulticlassSolution, error) {
	cfg, err := newSolveConfig(opts)
	if err != nil {
		return nil, err
	}
	nU := m.p.M()
	k := len(m.classes)
	scores := mat.NewDense(nU, k)
	var fact *HardFactorization
	if lambda == 0 && denseHard(cfg, nU) {
		fact, err = NewHardFactorization(m.p)
		if err != nil {
			return nil, err
		}
	}
	solveClass := func(ci int) error {
		if err := ctxErr(cfg.ctx); err != nil {
			return err
		}
		class := m.classes[ci]
		y := make([]float64, len(m.yClass))
		var prior float64
		for i, c := range m.yClass {
			if c == class {
				y[i] = 1
				prior++
			}
		}
		prior /= float64(len(m.yClass))
		var (
			sol *Solution
			err error
		)
		if fact != nil {
			sol, err = fact.SolveY(y)
		} else {
			// Rebuild a problem with the indicator responses on the same
			// graph and labeled set.
			var pc *Problem
			pc, err = NewProblem(m.p.g, m.p.labeled, y)
			if err != nil {
				return err
			}
			sol, err = SolveSoft(pc, lambda, opts...)
		}
		if err != nil {
			return fmt.Errorf("core: multiclass class %d: %w", class, err)
		}
		col := sol.FUnlabeled
		if normalize {
			col, err = ClassMassNormalize(col, clampPrior(prior))
			if err != nil {
				return err
			}
		}
		for i, v := range col {
			scores.Set(i, ci, v)
		}
		return nil
	}
	blocks := parallel.Split(k, parallel.Workers(cfg.workers))
	errs := make([]error, len(blocks))
	parallel.ForBlocks(cfg.workers, blocks, func(bi int, blk parallel.Block) {
		for ci := blk.Lo; ci < blk.Hi; ci++ {
			if err := solveClass(ci); err != nil {
				errs[bi] = err
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	pred := make([]int, nU)
	for i := 0; i < nU; i++ {
		best, bestVal := m.classes[0], math.Inf(-1)
		for ci, class := range m.classes {
			if v := scores.At(i, ci); v > bestVal {
				best, bestVal = class, v
			}
		}
		pred[i] = best
	}
	return &MulticlassSolution{
		Classes:   m.Classes(),
		Scores:    scores,
		Predicted: pred,
		Lambda:    lambda,
	}, nil
}

// denseHard reports whether a hard solve of m unknowns under cfg runs on a
// dense factorization.
func denseHard(cfg solveConfig, m int) bool {
	switch cfg.method {
	case MethodCholesky:
		return true
	case MethodAuto:
		cutoff := cfg.autoCutoff
		if cutoff <= 0 {
			cutoff = defaultAutoCutoff
		}
		return m <= cutoff
	default:
		return false
	}
}

// clampPrior keeps empirical priors inside (0,1) so CMN stays defined even
// when a class has no or all labeled mass after splitting.
func clampPrior(p float64) float64 {
	const eps = 1e-6
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}

// Accuracy compares predictions against true class ids aligned with the
// problem's unlabeled order.
func (s *MulticlassSolution) Accuracy(truth []int) (float64, error) {
	if len(truth) != len(s.Predicted) {
		return 0, fmt.Errorf("core: %d truths for %d predictions: %w", len(truth), len(s.Predicted), ErrParam)
	}
	if len(truth) == 0 {
		return 0, fmt.Errorf("core: empty truth: %w", ErrParam)
	}
	correct := 0
	for i, c := range truth {
		if s.Predicted[i] == c {
			correct++
		}
	}
	return float64(correct) / float64(len(truth)), nil
}
