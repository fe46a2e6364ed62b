package core

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// ContractionRate estimates the spectral radius ρ of the propagation
// iteration matrix D⁻¹W (restricted to the unlabeled block). The harmonic
// iteration f ← D⁻¹(B + W f) converges geometrically at rate ρ < 1 whenever
// every unlabeled component touches a labeled node; the paper's proof
// controls the same quantity through the "tiny elements" bound
// ‖D22⁻¹W22‖ ≤ mM/(n h^d).
//
// The estimate uses power iteration; D⁻¹W is nonnegative, so the iteration
// converges to the Perron root.
func ContractionRate(sys *PropagationSystem, maxIter int) (float64, error) {
	if sys == nil || sys.M() == 0 {
		return 0, fmt.Errorf("core: empty system: %w", ErrParam)
	}
	if maxIter <= 0 {
		maxIter = 5000
	}
	m := sys.M()
	x := mat.Ones(m)
	mat.ScaleVec(1/mat.Norm2(x), x)
	wx := make([]float64, m)
	var rho float64
	for it := 0; it < maxIter; it++ {
		if err := sys.W.MulVecTo(wx, x); err != nil {
			return 0, err
		}
		for i := range wx {
			wx[i] /= sys.D[i]
		}
		nrm := mat.Norm2(wx)
		if nrm == 0 {
			return 0, nil // no unlabeled-unlabeled mass at all
		}
		for i := range x {
			x[i] = wx[i] / nrm
		}
		if it > 5 && math.Abs(nrm-rho) <= 1e-12*math.Max(1, nrm) {
			return nrm, nil
		}
		rho = nrm
	}
	return rho, nil
}
