package core

import (
	"fmt"
	"math"

	"repro/internal/sparse"
)

// ContractionRate estimates the spectral radius ρ of the propagation
// iteration matrix D⁻¹W (restricted to the unlabeled block). The harmonic
// iteration f ← D⁻¹(B + W f) converges geometrically at rate ρ < 1 whenever
// every unlabeled component touches a labeled node; the paper's proof
// controls the same quantity through the "tiny elements" bound
// ‖D22⁻¹W22‖ ≤ mM/(n h^d).
//
// D⁻¹W is similar to the symmetric D^(−1/2) W D^(−1/2), so the estimate is
// sparse.LanczosRadius on that matrix: at most 50 Lanczos steps, whose Ritz
// values approach ρ from below.
func ContractionRate(sys *PropagationSystem) (float64, error) {
	if sys == nil || sys.M() == 0 {
		return 0, fmt.Errorf("core: empty system: %w", ErrParam)
	}
	s := make([]float64, sys.M())
	for i, d := range sys.D {
		if !(d > 0) {
			return 0, fmt.Errorf("core: contraction rate needs positive degrees, D[%d] = %v: %w", i, d, ErrParam)
		}
		s[i] = 1 / math.Sqrt(d)
	}
	return sparse.LanczosRadius(sys.W, s, 0, 1)
}
