package core

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/randx"
	"repro/internal/synth"
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
		{PrecondAuto, "jacobi"}, // Jacobi at every size
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

// TestAutoChainSelectsJacobiAboveCutoff: above the dense cutoff the auto
// chain's CG head runs Jacobi, with no reordering or factorization set-up,
// and solves bit for bit as an explicit PrecondJacobi does, whether CG is
// the chain's head or an explicit MethodCG; an explicit PrecondIC0 still
// runs IC(0) after RCM. The instance has the shape of the benchmark's
// CG-versus-Cholesky check: Model 1, 200 labeled + 1,800 unlabeled points,
// a kNN-10 graph and an auto cutoff of 256.
func TestAutoChainSelectsJacobiAboveCutoff(t *testing.T) {
	ds, err := synth.Generate(randx.New(5), synth.Model1, 200, 1800)
	if err != nil {
		t.Fatal(err)
	}
	h, err := kernel.PaperBandwidth(200, synth.Dim)
	if err != nil {
		t.Fatal(err)
	}
	b, err := graph.NewBuilder(kernel.MustNew(kernel.Gaussian, h), graph.WithKNN(10))
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Build(ds.X)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblemLabeledFirst(g, ds.YLabeled())
	if err != nil {
		t.Fatal(err)
	}
	solve := func(opts ...SolveOption) *Solution {
		t.Helper()
		sol, err := SolveHard(p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	ref := solve(WithMethod(MethodCholesky))

	sol := solve(WithAutoCutoff(256))
	if sol.Method != MethodCG || sol.Precond != "jacobi" || sol.PrecondSetup != 0 {
		t.Fatalf("auto chain settled on %v with precond %q, set-up %v: want cg, jacobi, 0", sol.Method, sol.Precond, sol.PrecondSetup)
	}
	if sol.Trace == nil || len(sol.Trace.Attempts) != 1 {
		t.Fatalf("auto solve trace %+v: want one attempt", sol.Trace)
	}
	if att := sol.Trace.Attempts[0]; att.Precond != "jacobi" || att.PrecondSetup != 0 {
		t.Fatalf("winning attempt records precond %q, set-up %v: want jacobi, 0", att.Precond, att.PrecondSetup)
	}
	closeVecs(t, "auto vs dense", sol.F, ref.F, 1e-8)
	for _, c := range []struct {
		name string
		got  *Solution
	}{
		{"auto chain, PrecondJacobi", solve(WithAutoCutoff(256), WithPreconditioner(PrecondJacobi))},
		{"explicit cg", solve(WithMethod(MethodCG))},
		{"explicit cg, PrecondJacobi", solve(WithMethod(MethodCG), WithPreconditioner(PrecondJacobi))},
	} {
		for i := range sol.F {
			if math.Float64bits(c.got.F[i]) != math.Float64bits(sol.F[i]) {
				t.Fatalf("%s: F[%d] = %v, default auto chain %v", c.name, i, c.got.F[i], sol.F[i])
			}
		}
	}

	ic := solve(WithAutoCutoff(256), WithPreconditioner(PrecondIC0))
	if ic.Method != MethodCG || ic.Precond != "ic0+rcm" {
		t.Fatalf("explicit PrecondIC0 settled on %v with precond %q, want cg, ic0+rcm", ic.Method, ic.Precond)
	}
	closeVecs(t, "ic0 vs dense", ic.F, ref.F, 1e-8)
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
