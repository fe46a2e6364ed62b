// Package core implements the paper's contribution: the hard criterion
// (Zhu–Ghahramani–Lafferty harmonic solution, Eq. 1/5), the soft criterion
// (Laplacian-regularized least squares, Eq. 2/3/4), their λ-limits
// (Proposition II.1 at λ=0, Proposition II.2 at λ=∞), the Nadaraya–Watson
// estimator that anchors the consistency proof of Theorem II.1, and the
// diagnostics derived from that proof.
package core

import (
	"errors"
	"fmt"

	"repro/internal/graph"
)

var (
	// ErrParam is returned for invalid problem construction.
	ErrParam = errors.New("core: invalid parameter")
	// ErrIsolated is returned when an unlabeled component has no labeled
	// node, making the hard criterion singular on that component.
	ErrIsolated = errors.New("core: unlabeled component with no labeled node")
	// ErrSolver is returned when the underlying linear solve fails.
	ErrSolver = errors.New("core: solver failure")
	// ErrDisconnected is returned by λ=∞ evaluation on disconnected graphs,
	// where the limit is componentwise, not a single global mean.
	ErrDisconnected = errors.New("core: graph is not connected")
)

// Problem is a transductive semi-supervised learning instance: a similarity
// graph over n+m nodes, of which the nodes in Labeled carry the observed
// responses Y (aligned index-for-index with Labeled).
type Problem struct {
	g         *graph.Graph
	y         []float64
	labeled   []int
	unlabeled []int
	isLabeled []bool
}

// NewProblem validates and builds a Problem. labeled must contain distinct
// in-range node indices; y must align with labeled; at least one node must
// remain unlabeled.
func NewProblem(g *graph.Graph, labeled []int, y []float64) (*Problem, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph: %w", ErrParam)
	}
	n := g.N()
	if len(labeled) == 0 {
		return nil, fmt.Errorf("core: no labeled nodes: %w", ErrParam)
	}
	if len(labeled) != len(y) {
		return nil, fmt.Errorf("core: %d labeled indices but %d responses: %w", len(labeled), len(y), ErrParam)
	}
	if len(labeled) >= n {
		return nil, fmt.Errorf("core: all %d nodes labeled, nothing to predict: %w", n, ErrParam)
	}
	isLabeled := make([]bool, n)
	for _, idx := range labeled {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("core: labeled index %d outside [0,%d): %w", idx, n, ErrParam)
		}
		if isLabeled[idx] {
			return nil, fmt.Errorf("core: duplicate labeled index %d: %w", idx, ErrParam)
		}
		isLabeled[idx] = true
	}
	unlabeled := make([]int, 0, n-len(labeled))
	for i := 0; i < n; i++ {
		if !isLabeled[i] {
			unlabeled = append(unlabeled, i)
		}
	}
	lab := make([]int, len(labeled))
	copy(lab, labeled)
	resp := make([]float64, len(y))
	copy(resp, y)
	return &Problem{g: g, y: resp, labeled: lab, unlabeled: unlabeled, isLabeled: isLabeled}, nil
}

// NewProblemLabeledFirst is the paper's layout: the first n nodes are
// labeled with responses y (len(y) = n), the remaining m are unlabeled.
func NewProblemLabeledFirst(g *graph.Graph, y []float64) (*Problem, error) {
	labeled := make([]int, len(y))
	for i := range labeled {
		labeled[i] = i
	}
	return NewProblem(g, labeled, y)
}

// Graph returns the underlying graph.
func (p *Problem) Graph() *graph.Graph { return p.g }

// N returns the number of labeled nodes (the paper's n).
func (p *Problem) N() int { return len(p.labeled) }

// M returns the number of unlabeled nodes (the paper's m).
func (p *Problem) M() int { return len(p.unlabeled) }

// Labeled returns a copy of the labeled node indices.
func (p *Problem) Labeled() []int {
	out := make([]int, len(p.labeled))
	copy(out, p.labeled)
	return out
}

// Unlabeled returns a copy of the unlabeled node indices in ascending order.
func (p *Problem) Unlabeled() []int {
	out := make([]int, len(p.unlabeled))
	copy(out, p.unlabeled)
	return out
}

// Y returns a copy of the observed responses, aligned with Labeled().
func (p *Problem) Y() []float64 {
	out := make([]float64, len(p.y))
	copy(out, p.y)
	return out
}

// IsLabeled reports whether node i is labeled.
func (p *Problem) IsLabeled(i int) bool {
	if i < 0 || i >= len(p.isLabeled) {
		return false
	}
	return p.isLabeled[i]
}

// CheckCoverage verifies that every connected component containing an
// unlabeled node also contains a labeled node; otherwise the hard system is
// singular on that component and it returns ErrIsolated. It reads the
// graph's shared component labelling, and names the first uncovered
// component by its smallest node. The hard solve runs it first; a caller
// that needs only the labeled scores, which the hard criterion fixes to Y,
// runs it alone.
func (p *Problem) CheckCoverage() error {
	label, count := p.g.ComponentLabels()
	covered := make([]bool, count)
	for _, l := range p.labeled {
		covered[label[l]] = true
	}
	// Ascending node order reaches the uncovered component with the
	// smallest first node at that node.
	for i, c := range label {
		if !covered[c] {
			return fmt.Errorf("core: component starting at node %d: %w", i, ErrIsolated)
		}
	}
	return nil
}
