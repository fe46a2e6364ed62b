package core

import (
	"errors"
	"testing"

	"repro/internal/mat"
	"repro/internal/randx"
)

func TestHardFactorizationMatchesSolveHard(t *testing.T) {
	rng := randx.New(601)
	pts := make([]float64, 18)
	for i := range pts {
		pts[i] = rng.Norm()
	}
	g := fullGraph(t, pts, 1)
	y := make([]float64, 7)
	for i := range y {
		y[i] = rng.Bernoulli(0.5)
	}
	p, err := NewProblemLabeledFirst(g, y)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SolveHard(p)
	if err != nil {
		t.Fatal(err)
	}
	fact, err := NewHardFactorization(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fact.SolveY(y)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecEqual(got.FUnlabeled, want.FUnlabeled, 1e-10) {
		t.Fatal("factorized solve differs from SolveHard")
	}
	if !mat.VecEqual(got.F, want.F, 1e-10) {
		t.Fatal("full score vector differs")
	}
}

func TestHardFactorizationNewResponses(t *testing.T) {
	rng := randx.New(603)
	pts := make([]float64, 15)
	for i := range pts {
		pts[i] = rng.Norm()
	}
	g := fullGraph(t, pts, 1)
	placeholder := make([]float64, 6)
	p, err := NewProblemLabeledFirst(g, placeholder)
	if err != nil {
		t.Fatal(err)
	}
	fact, err := NewHardFactorization(p)
	if err != nil {
		t.Fatal(err)
	}
	// Solving with fresh responses must match a from-scratch problem.
	y2 := []float64{1, 0, 1, 1, 0, 1}
	got, err := fact.SolveY(y2)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewProblemLabeledFirst(g, y2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SolveHard(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecEqual(got.FUnlabeled, want.FUnlabeled, 1e-10) {
		t.Fatal("SolveY with new responses wrong")
	}
	// Labeled entries of F must carry the supplied y, not the placeholder.
	for k, l := range p.Labeled() {
		if got.F[l] != y2[k] {
			t.Fatal("full vector must use the supplied responses")
		}
	}
}

func TestHardFactorizationSolveYValidation(t *testing.T) {
	g := chainGraph(t, 4)
	p, err := NewProblem(g, []int{0}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	fact, err := NewHardFactorization(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fact.SolveY([]float64{1, 2}); !errors.Is(err, ErrParam) {
		t.Fatal("wrong y length must error")
	}
}

func TestHardFactorizationIsolatedError(t *testing.T) {
	p, err := NewProblem(newTwoComponentGraph(t), []int{0}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHardFactorization(p); !errors.Is(err, ErrIsolated) {
		t.Fatalf("want ErrIsolated, got %v", err)
	}
}
