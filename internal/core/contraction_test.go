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

func TestBuildPropagationSystem(t *testing.T) {
	rng := randx.New(1)
	pts := make([]float64, 12)
	for i := range pts {
		pts[i] = rng.Norm()
	}
	y := make([]float64, 5)
	for i := range y {
		y[i] = rng.Bernoulli(0.5)
	}
	p, err := NewProblemLabeledFirst(fullGraph(t, pts, 1.2), y)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := BuildPropagationSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	if sys.M() != p.M() {
		t.Fatalf("M = %d, want %d", sys.M(), p.M())
	}
	if len(sys.D) != sys.M() || len(sys.B) != sys.M() {
		t.Fatal("system slices inconsistent")
	}
	if r, c := sys.W.Dims(); r != sys.M() || c != sys.M() {
		t.Fatalf("W is %dx%d, want %dx%d", r, c, sys.M(), sys.M())
	}
	for _, d := range sys.D {
		if d <= 0 {
			t.Fatal("nonpositive degree")
		}
	}
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
	// Run the harmonic iteration and compare orders of magnitude.
	fu, iters := harmonicIterate(sys, 1e-10)
	if len(fu) != sys.M() {
		t.Fatal("iteration output shape wrong")
	}
	if iters <= 0 {
		t.Fatal("no iterations recorded")
	}
	ratio := float64(iters) / float64(predicted)
	if ratio < 0.1 || ratio > 10 {
		t.Fatalf("predicted %d supersteps but took %d", predicted, iters)
	}
}

// harmonicIterate runs f ← D⁻¹(B + W f) from f = 0 until no entry moves by
// more than tol·(1 + max|f|), and returns the iterate with the sweep count.
func harmonicIterate(sys *PropagationSystem, tol float64) ([]float64, int) {
	m := sys.M()
	f, next := make([]float64, m), make([]float64, m)
	for it := 1; ; it++ {
		var delta, scale float64
		for k := 0; k < m; k++ {
			cols, vals := sys.W.RowNNZ(k)
			s := sys.B[k]
			for c, j := range cols {
				s += vals[c] * f[j]
			}
			next[k] = s / sys.D[k]
			delta = math.Max(delta, math.Abs(next[k]-f[k]))
			scale = math.Max(scale, math.Abs(next[k]))
		}
		f, next = next, f
		if delta <= tol*(1+scale) {
			return f, it
		}
	}
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
