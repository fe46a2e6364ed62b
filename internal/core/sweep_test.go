package core

import (
	"errors"
	"math"
	"testing"
)

// TestSoftSweepMatchesSolveSoft checks the warm-started sweep against
// independent per-λ solves: λ=0 entries must equal SolveHard bitwise, and
// λ>0 entries must agree with the dense reference solution to well within
// the CG tolerance.
func TestSoftSweepMatchesSolveSoft(t *testing.T) {
	p := softTestProblem(t, 21, 40, 12)
	lambdas := []float64{0, 0.01, 0.1, 1, 5}
	path, err := SoftSweep(p, lambdas)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != len(lambdas) {
		t.Fatalf("%d points, want %d", len(path), len(lambdas))
	}
	for i, pt := range path {
		l := lambdas[i]
		if pt.Lambda != l {
			t.Fatalf("point %d: λ=%v, want %v", i, pt.Lambda, l)
		}
		ref, err := SolveSoft(p, l)
		if err != nil {
			t.Fatal(err)
		}
		if l == 0 {
			for j := range ref.F {
				if pt.Solution.F[j] != ref.F[j] {
					t.Fatalf("λ=0: F[%d] differs from SolveHard (must be bitwise-identical)", j)
				}
			}
			continue
		}
		for j := range ref.F {
			if d := math.Abs(pt.Solution.F[j] - ref.F[j]); d > 1e-7 {
				t.Fatalf("λ=%v: F[%d] off by %v from dense reference", l, j, d)
			}
		}
		// The sweep solution must also be a (near-)minimizer of the
		// objective, not just close in coordinates.
		refObj, err := SoftObjective(p, l, ref.F)
		if err != nil {
			t.Fatal(err)
		}
		gotObj, err := SoftObjective(p, l, pt.Solution.F)
		if err != nil {
			t.Fatal(err)
		}
		if gotObj > refObj+1e-9*(1+math.Abs(refObj)) {
			t.Fatalf("λ=%v: objective %v exceeds dense optimum %v", l, gotObj, refObj)
		}
	}
}

// TestSoftSweepDeterministicAcrossWorkers: the warm-start chain must be
// bitwise-identical for every worker count.
func TestSoftSweepDeterministicAcrossWorkers(t *testing.T) {
	p := softTestProblem(t, 23, 35, 10)
	lambdas := []float64{0.01, 0.1, 5}
	ref, err := SoftSweep(p, lambdas, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 0} {
		got, err := SoftSweep(p, lambdas, WithWorkers(w))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range ref {
			for j := range ref[i].Solution.F {
				if got[i].Solution.F[j] != ref[i].Solution.F[j] {
					t.Fatalf("workers=%d λ=%v: F[%d] differs (must be bitwise-identical)", w, ref[i].Lambda, j)
				}
			}
		}
	}
}

// TestSoftSweepZeroInterleaving: λ=0 entries never enter the warm-start
// chain, so interleaving zeros anywhere leaves the λ>0 solutions unchanged.
func TestSoftSweepZeroInterleaving(t *testing.T) {
	p := softTestProblem(t, 27, 30, 9)
	plain, err := SoftSweep(p, []float64{0.05, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := SoftSweep(p, []float64{0, 0.05, 0, 0.5, 0})
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	for _, pt := range mixed {
		if pt.Lambda == 0 {
			continue
		}
		ref := plain[pos]
		pos++
		for j := range ref.Solution.F {
			if pt.Solution.F[j] != ref.Solution.F[j] {
				t.Fatalf("λ=%v: interleaved zeros changed the solution", pt.Lambda)
			}
		}
	}
	if pos != len(plain) {
		t.Fatalf("matched %d λ>0 points, want %d", pos, len(plain))
	}
}

// TestSoftSweepExplicitMethodFallback: non-CG methods delegate to the
// per-λ path and must match SolveSoft bitwise.
func TestSoftSweepExplicitMethodFallback(t *testing.T) {
	p := softTestProblem(t, 29, 20, 6)
	lambdas := []float64{0.1, 2}
	path, err := SoftSweep(p, lambdas, WithMethod(MethodCholesky))
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range lambdas {
		ref, err := SolveSoft(p, l, WithMethod(MethodCholesky))
		if err != nil {
			t.Fatal(err)
		}
		for j := range ref.F {
			if path[i].Solution.F[j] != ref.F[j] {
				t.Fatalf("λ=%v: Cholesky sweep differs from SolveSoft", l)
			}
		}
	}
}

func TestSoftSweepValidation(t *testing.T) {
	p := softTestProblem(t, 31, 10, 4)
	if _, err := SoftSweep(p, nil); !errors.Is(err, ErrParam) {
		t.Fatalf("empty sweep: %v", err)
	}
	for _, l := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := SoftSweep(p, []float64{0.1, l}); !errors.Is(err, ErrParam) {
			t.Fatalf("λ=%v: %v", l, err)
		}
	}
}
