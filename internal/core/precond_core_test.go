package core

import (
	"math"
	"testing"
)

func closeVecs(t *testing.T, name string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > tol*(1+math.Abs(want[i])) {
			t.Fatalf("%s: differs at %d: %g vs %g", name, i, got[i], want[i])
		}
	}
}

// TestWithPreconditionerVariantsAgree: every preconditioner choice solves
// the same system — only iteration counts may differ.
func TestWithPreconditionerVariantsAgree(t *testing.T) {
	p := gaussProblem(t, 11, 12, 60)
	ref, err := SolveSoft(p, 0.3, WithMethod(MethodCholesky))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		pc   Precond
		name string
	}{
		{PrecondJacobi, "jacobi"},
		{PrecondIC0, "ic0+rcm"},
		{PrecondNone, "none"},
		{PrecondAuto, "jacobi"}, // n below cutoff resolves to Jacobi
	}
	for _, c := range cases {
		sol, err := SolveSoft(p, 0.3, WithMethod(MethodCG), WithPreconditioner(c.pc))
		if err != nil {
			t.Fatalf("%v: %v", c.pc, err)
		}
		if sol.Precond != c.name {
			t.Fatalf("%v: solution reports precond %q, want %q", c.pc, sol.Precond, c.name)
		}
		closeVecs(t, c.pc.String(), sol.F, ref.F, 1e-6)
	}
}

// TestAutoChainSelectsIC0AboveCutoff: once the system outgrows the dense
// cutoff, the auto chain's CG head must run IC(0) with RCM and record it in
// the solution and trace.
func TestAutoChainSelectsIC0AboveCutoff(t *testing.T) {
	p := gaussProblem(t, 5, 15, 70)
	sol, err := SolveHard(p, WithAutoCutoff(1))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != MethodCG {
		t.Fatalf("auto chain settled on %v, want cg", sol.Method)
	}
	if sol.Precond != "ic0+rcm" {
		t.Fatalf("auto chain used precond %q, want ic0+rcm", sol.Precond)
	}
	if sol.Trace == nil || len(sol.Trace.Attempts) == 0 {
		t.Fatal("auto solve carried no trace attempts")
	}
	if att := sol.Trace.Attempts[len(sol.Trace.Attempts)-1]; att.Precond != "ic0+rcm" {
		t.Fatalf("winning attempt records precond %q, want ic0+rcm", att.Precond)
	}

	ref, err := SolveHard(p, WithMethod(MethodCholesky))
	if err != nil {
		t.Fatal(err)
	}
	closeVecs(t, "auto-ic0 vs dense", sol.F, ref.F, 1e-6)
}

// TestSmallAutoSolveKeepsDensePathAndNoPrecond: at or below the cutoff the
// plan is dense-first and no preconditioner identity is reported.
func TestSmallAutoSolveKeepsDensePathAndNoPrecond(t *testing.T) {
	p := gaussProblem(t, 3, 10, 30)
	sol, err := SolveHard(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != MethodCholesky {
		t.Fatalf("small auto solve used %v, want cholesky", sol.Method)
	}
	if sol.Precond != "" {
		t.Fatalf("direct solve reports precond %q, want empty", sol.Precond)
	}
}

// TestSoftSweepPreconditionerPaths: the default sweep runs warm Jacobi;
// an IC(0) or unpreconditioned sweep falls back to per-λ SolveSoft, so it
// must match SolveSoft bitwise and report the same preconditioner, and
// every path must agree with the default.
func TestSoftSweepPreconditionerPaths(t *testing.T) {
	p := gaussProblem(t, 9, 14, 50)
	lambdas := []float64{0, 0.05, 0.5, 2}

	def, err := SoftSweep(p, lambdas)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range lambdas {
		if got := def[i].Solution.Precond; l > 0 && got != "jacobi" {
			t.Fatalf("default sweep λ=%v precond %q, want jacobi", l, got)
		}
	}
	for _, c := range []struct {
		pc   Precond
		name string
	}{
		{PrecondIC0, "ic0+rcm"},
		{PrecondNone, "none"},
	} {
		opts := []SolveOption{WithMethod(MethodCG), WithPreconditioner(c.pc)}
		path, err := SoftSweep(p, lambdas, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range lambdas {
			closeVecs(t, c.name+" sweep", path[i].Solution.F, def[i].Solution.F, 1e-6)
			ref, err := SolveSoft(p, l, opts...)
			if err != nil {
				t.Fatal(err)
			}
			got := path[i].Solution
			if got.Precond != ref.Precond {
				t.Fatalf("%s sweep λ=%v precond %q, SolveSoft %q", c.name, l, got.Precond, ref.Precond)
			}
			if l > 0 && got.Precond != c.name {
				t.Fatalf("%s sweep λ=%v precond %q", c.name, l, got.Precond)
			}
			for k := range ref.F {
				if got.F[k] != ref.F[k] {
					t.Fatalf("%s sweep λ=%v: F[%d] differs from SolveSoft", c.name, l, k)
				}
			}
		}
	}
}

// TestSoftSweepDefaultBitwiseStable: the pooled-workspace rework of the
// default sweep path must not change the warm-Jacobi iterates — compare
// against per-λ SolveSoft with explicit warmless CG only for equality of
// the sweep with itself across reruns (bit stability), and with the dense
// reference for correctness.
func TestSoftSweepDefaultBitwiseStable(t *testing.T) {
	p := gaussProblem(t, 21, 14, 50)
	lambdas := []float64{0.05, 0.5, 2}
	a, err := SoftSweep(p, lambdas)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SoftSweep(p, lambdas)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lambdas {
		fa, fb := a[i].Solution.F, b[i].Solution.F
		for k := range fa {
			if fa[k] != fb[k] {
				t.Fatalf("sweep rerun differs at λ=%v index %d", lambdas[i], k)
			}
		}
		ref, err := SolveSoft(p, lambdas[i], WithMethod(MethodCholesky))
		if err != nil {
			t.Fatal(err)
		}
		closeVecs(t, "sweep vs dense", fa, ref.F, 1e-6)
	}
}

// TestResolvePrecond pins the auto-resolution rule.
func TestResolvePrecond(t *testing.T) {
	if got := resolvePrecond(PrecondAuto, 100, 2048); got != PrecondJacobi {
		t.Fatalf("auto small = %v", got)
	}
	if got := resolvePrecond(PrecondAuto, 5000, 2048); got != PrecondIC0 {
		t.Fatalf("auto large = %v", got)
	}
	if got := resolvePrecond(PrecondAuto, 5000, 0); got != PrecondIC0 {
		t.Fatalf("auto default cutoff = %v", got)
	}
	if got := resolvePrecond(PrecondNone, 5000, 2048); got != PrecondNone {
		t.Fatalf("explicit none = %v", got)
	}
	if got := resolvePrecond(PrecondIC0, 10, 2048); got != PrecondIC0 {
		t.Fatalf("explicit ic0 = %v", got)
	}
}
