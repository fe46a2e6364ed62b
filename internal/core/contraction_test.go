package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/randx"
)

func contractionSystem(t *testing.T, seed int64, nTotal, nLabeled int) *PropagationSystem {
	t.Helper()
	rng := randx.New(seed)
	pts := make([]float64, nTotal)
	for i := range pts {
		pts[i] = rng.Norm()
	}
	g := fullGraph(t, pts, 1)
	y := make([]float64, nLabeled)
	for i := range y {
		y[i] = rng.Bernoulli(0.5)
	}
	p, err := NewProblemLabeledFirst(g, y)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := BuildPropagationSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestContractionRateBelowOne(t *testing.T) {
	sys := contractionSystem(t, 501, 25, 10)
	rho, err := ContractionRate(sys)
	if err != nil {
		t.Fatal(err)
	}
	if rho <= 0 || rho >= 1 {
		t.Fatalf("contraction rate %v outside (0,1)", rho)
	}
	// Against the dense eigensolver on D^(−1/2) W D^(−1/2), which is similar
	// to D⁻¹W.
	m := sys.M()
	s := sys.W.ToDense()
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			s.Set(i, j, s.At(i, j)/math.Sqrt(sys.D[i]*sys.D[j]))
		}
	}
	eig, err := mat.NewEigenSym(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := max(math.Abs(eig.Values[0]), math.Abs(eig.Values[m-1]))
	if math.Abs(rho-want) > 1e-9 {
		t.Fatalf("contraction rate %.17g, dense %.17g", rho, want)
	}
}

func TestContractionRateGrowsWithFewerLabels(t *testing.T) {
	// More unlabeled mass ⇒ slower contraction (ρ closer to 1) — the
	// mechanism behind the paper's m = o(n h^d) condition.
	many := contractionSystem(t, 503, 40, 30)
	few := contractionSystem(t, 503, 40, 5)
	rhoMany, err := ContractionRate(many)
	if err != nil {
		t.Fatal(err)
	}
	rhoFew, err := ContractionRate(few)
	if err != nil {
		t.Fatal(err)
	}
	if rhoFew <= rhoMany {
		t.Fatalf("ρ(few labels)=%v must exceed ρ(many labels)=%v", rhoFew, rhoMany)
	}
}

func TestContractionRatePredictsPropagationCost(t *testing.T) {
	sys := contractionSystem(t, 505, 30, 10)
	rho, err := ContractionRate(sys)
	if err != nil {
		t.Fatal(err)
	}
	// Supersteps to shrink the error by 1e-10 at contraction rate ρ.
	predicted := int(math.Ceil(math.Log(1e-10) / math.Log(rho)))
	// Run the actual propagation and compare orders of magnitude.
	fu, res, err := propagateForTest(sys, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if len(fu) != sys.M() {
		t.Fatal("propagation output shape wrong")
	}
	if res <= 0 {
		t.Fatal("no iterations recorded")
	}
	ratio := float64(res) / float64(predicted)
	if ratio < 0.1 || ratio > 10 {
		t.Fatalf("predicted %d supersteps but took %d", predicted, res)
	}
}

// propagateForTest runs the package propagation on a system.
func propagateForTest(sys *PropagationSystem, tol float64) ([]float64, int, error) {
	hs := &hardSystem{b: sys.B, w22: sys.W, d22: sys.D}
	f, res, err := propagate(nil, hs, tol, 0, 1)
	return f, res.Iterations, err
}

func TestContractionRateValidation(t *testing.T) {
	if _, err := ContractionRate(nil); !errors.Is(err, ErrParam) {
		t.Fatal("nil system must error")
	}
	sys := contractionSystem(t, 501, 25, 10)
	sys.D[3] = 0
	if _, err := ContractionRate(sys); !errors.Is(err, ErrParam) {
		t.Fatalf("zero degree: want ErrParam, got %v", err)
	}
}
