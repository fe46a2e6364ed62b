package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/randx"
)

func softTestProblem(t *testing.T, seed int64, nTotal, nLabeled int) *Problem {
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
	return p
}

func TestSolveSoftLambdaValidation(t *testing.T) {
	p := softTestProblem(t, 1, 8, 3)
	for _, l := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := SolveSoft(p, l); !errors.Is(err, ErrParam) {
			t.Fatalf("λ=%v: want ErrParam, got %v", l, err)
		}
	}
}

// TestPropositionII1SoftAtZeroEqualsHard: λ=0 dispatches to the hard
// criterion exactly.
func TestPropositionII1SoftAtZeroEqualsHard(t *testing.T) {
	p := softTestProblem(t, 3, 10, 4)
	hard, err := SolveHard(p)
	if err != nil {
		t.Fatal(err)
	}
	soft0, err := SolveSoft(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecEqual(hard.FUnlabeled, soft0.FUnlabeled, 0) {
		t.Fatal("SolveSoft(0) must equal SolveHard exactly")
	}
}

// TestPropositionII1Limit: the soft solution converges to the hard one as
// λ → 0 (Remark 1 / Proposition II.1).
func TestPropositionII1Limit(t *testing.T) {
	p := softTestProblem(t, 5, 12, 5)
	hard, err := SolveHard(p)
	if err != nil {
		t.Fatal(err)
	}
	prevGap := math.Inf(1)
	for _, l := range []float64{1e-1, 1e-3, 1e-5, 1e-8} {
		soft, err := SolveSoft(p, l)
		if err != nil {
			t.Fatal(err)
		}
		var gap float64
		for k := range hard.FUnlabeled {
			if d := math.Abs(hard.FUnlabeled[k] - soft.FUnlabeled[k]); d > gap {
				gap = d
			}
		}
		if gap > prevGap+1e-12 {
			t.Fatalf("gap must shrink along λ→0: %v then %v", prevGap, gap)
		}
		prevGap = gap
	}
	if prevGap > 1e-6 {
		t.Fatalf("soft(1e-8) still %v away from hard", prevGap)
	}
}

// TestPropositionII2LambdaInfinityCollapse: for huge λ on a connected graph
// every prediction approaches the labeled mean ȳ — the paper's
// inconsistency counterexample.
func TestPropositionII2LambdaInfinityCollapse(t *testing.T) {
	p := softTestProblem(t, 7, 12, 6)
	mean, err := LambdaInfinity(p)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveSoft(p, 1e8)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range sol.FUnlabeled {
		if math.Abs(v-mean) > 1e-4 {
			t.Fatalf("unlabeled %d: f = %v, want ≈ ȳ = %v", k, v, mean)
		}
	}
	// Labeled fits also collapse to the mean.
	for _, l := range p.Labeled() {
		if math.Abs(sol.F[l]-mean) > 1e-4 {
			t.Fatalf("labeled %d: f = %v, want ≈ ȳ = %v", l, sol.F[l], mean)
		}
	}
}

func TestLambdaInfinityExactMean(t *testing.T) {
	p := softTestProblem(t, 9, 8, 4)
	mean, err := LambdaInfinity(p)
	if err != nil {
		t.Fatal(err)
	}
	want := mat.MeanVec(p.Y())
	if math.Abs(mean-want) > 1e-15 {
		t.Fatalf("LambdaInfinity = %v, want %v", mean, want)
	}
}

func TestLambdaInfinityDisconnected(t *testing.T) {
	p, err := NewProblem(newTwoComponentGraph(t), []int{0, 2}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LambdaInfinity(p); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("want ErrDisconnected, got %v", err)
	}
}

// TestSoftShrinksLabeledFit: for λ>0 the soft criterion does not interpolate
// the labels (the fitted labeled values differ from Y), while the hard one
// does.
func TestSoftShrinksLabeledFit(t *testing.T) {
	p := softTestProblem(t, 11, 10, 5)
	sol, err := SolveSoft(p, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	y := p.Y()
	lab := p.Labeled()
	anyShrunk := false
	for k, l := range lab {
		if math.Abs(sol.F[l]-y[k]) > 1e-8 {
			anyShrunk = true
		}
	}
	if !anyShrunk {
		t.Fatal("soft criterion with λ=0.5 should not interpolate the labels")
	}
}

// TestSoftObjectiveMinimizer: the solver output must achieve a lower
// objective than random perturbations of it — a direct check that we solve
// the paper's Eq. 2.
func TestSoftObjectiveMinimizer(t *testing.T) {
	p := softTestProblem(t, 13, 9, 4)
	const lambda = 0.3
	sol, err := SolveSoft(p, lambda)
	if err != nil {
		t.Fatal(err)
	}
	base, err := SoftObjective(p, lambda, sol.F)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(14)
	for trial := 0; trial < 30; trial++ {
		pert := mat.CloneVec(sol.F)
		for i := range pert {
			pert[i] += rng.Norm() * 0.05
		}
		obj, err := SoftObjective(p, lambda, pert)
		if err != nil {
			t.Fatal(err)
		}
		if obj < base-1e-10 {
			t.Fatalf("perturbation beat the solver: %v < %v", obj, base)
		}
	}
}

func TestSoftObjectiveShapeError(t *testing.T) {
	p := softTestProblem(t, 15, 6, 2)
	if _, err := SoftObjective(p, 1, []float64{1}); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
}

// TestSoftMonotoneRMSEInLambda is the theory's practical consequence on a
// well-specified instance: predictions move from the hard solution toward
// the global mean as λ grows.
func TestSoftLambdaPathMovesTowardMean(t *testing.T) {
	p := softTestProblem(t, 17, 14, 7)
	mean, err := LambdaInfinity(p)
	if err != nil {
		t.Fatal(err)
	}
	path, err := LambdaPath(p, []float64{0, 1, 100, 10000})
	if err != nil {
		t.Fatal(err)
	}
	dists := make([]float64, len(path))
	for i, pt := range path {
		for _, v := range pt.Solution.FUnlabeled {
			dists[i] += (v - mean) * (v - mean)
		}
	}
	// The λ→∞ collapse (Prop. II.2) guarantees the large-λ end approaches
	// the mean; intermediate behaviour need not be monotone.
	if dists[len(dists)-1] >= dists[0] {
		t.Fatalf("λ=10000 distance %v not below λ=0 distance %v", dists[len(dists)-1], dists[0])
	}
	if dists[len(dists)-1] > 1e-4 {
		t.Fatalf("λ=10000 should be near the mean, distance² = %v", dists[len(dists)-1])
	}
}

func TestSoftMethodsAgree(t *testing.T) {
	p := softTestProblem(t, 19, 12, 5)
	ref, err := SolveSoft(p, 0.7, WithMethod(MethodCholesky))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodAuto, MethodCG} {
		sol, err := SolveSoft(p, 0.7, WithMethod(m), WithTolerance(1e-12))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !mat.VecEqual(sol.FUnlabeled, ref.FUnlabeled, 1e-6) {
			t.Fatalf("%v disagrees with Cholesky", m)
		}
	}
}

// TestSolveMethodDispatch: SolveHard and SolveSoft share one dispatcher,
// which rejects every method WithMethod cannot select with ErrParam.
func TestSolveMethodDispatch(t *testing.T) {
	p := softTestProblem(t, 22, 6, 2)
	hard := func(m Method) error {
		_, err := SolveHard(p, WithMethod(m))
		return err
	}
	soft := func(m Method) error {
		_, err := SolveSoft(p, 0.3, WithMethod(m))
		return err
	}
	cases := []struct {
		name  string
		solve func(Method) error
		m     Method
	}{
		{"hard/zero", hard, Method(0)},
		{"hard/unknown", hard, Method(99)},
		{"soft/zero", soft, Method(0)},
		{"soft/unknown", soft, Method(99)},
	}
	for _, c := range cases {
		if err := c.solve(c.m); !errors.Is(err, ErrParam) {
			t.Fatalf("%s: want ErrParam, got %v", c.name, err)
		}
	}
}

func TestLambdaPathEmpty(t *testing.T) {
	p := softTestProblem(t, 23, 6, 2)
	if _, err := LambdaPath(p, nil); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
}

func TestLambdaPathOrderPreserved(t *testing.T) {
	p := softTestProblem(t, 25, 8, 3)
	lams := []float64{5, 0, 0.1}
	path, err := LambdaPath(p, lams)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range path {
		if pt.Lambda != lams[i] {
			t.Fatalf("path order broken: %v", path)
		}
		if pt.Solution.Lambda != lams[i] {
			t.Fatalf("solution λ mismatch at %d", i)
		}
	}
}
