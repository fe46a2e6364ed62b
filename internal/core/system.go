package core

import "repro/internal/sparse"

// PropagationSystem is the hard criterion's fixed-point system in explicit
// form, for readers outside the solver: ContractionRate, the consistency
// diagnostics of internal/experiments, and the bench module's residual
// check and layer probes:
//
//	f = D⁻¹ (B + W f),   solution of (D − W) f = B,
//
// where D are the full degrees of the unlabeled nodes, W the
// unlabeled–unlabeled similarity block, and B = W21 Y the labeled mass.
type PropagationSystem struct {
	// D holds the positive diagonal (full degrees of the unlabeled nodes).
	D []float64
	// W is the m×m unlabeled–unlabeled block.
	W *sparse.CSR
	// B is the labeled contribution W21·Y.
	B []float64
}

// BuildPropagationSystem extracts the system from a problem. It performs
// the same coverage validation as SolveHard: every unlabeled component must
// contain a labeled node, and every unlabeled node must have positive
// degree.
func BuildPropagationSystem(p *Problem) (*PropagationSystem, error) {
	sys, err := buildHardSystem(p)
	if err != nil {
		return nil, err
	}
	for _, d := range sys.d22 {
		if d == 0 {
			return nil, ErrIsolated
		}
	}
	return &PropagationSystem{D: sys.d22, W: sys.w22, B: sys.b}, nil
}

// M returns the number of unknowns.
func (s *PropagationSystem) M() int { return len(s.B) }
