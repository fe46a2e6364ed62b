package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/randx"
	"repro/internal/sparse"
)

func TestMethodString(t *testing.T) {
	tests := []struct {
		m    Method
		want string
	}{
		{MethodAuto, "auto"},
		{MethodCholesky, "cholesky"},
		{MethodCG, "cg"},
		{Method(42), "Method(42)"},
	}
	for _, tt := range tests {
		if got := tt.m.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

// TestHardChainInterpolation: on a unit chain with endpoints labeled 0 and 1,
// the harmonic solution is linear interpolation — the classic oracle for the
// hard criterion.
func TestHardChainInterpolation(t *testing.T) {
	g := chainGraph(t, 5)
	p, err := NewProblem(g, []int{0, 4}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveHard(p)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if !mat.VecEqual(sol.F, want, 1e-10) {
		t.Fatalf("F = %v, want %v", sol.F, want)
	}
	if !mat.VecEqual(sol.FUnlabeled, []float64{0.25, 0.5, 0.75}, 1e-10) {
		t.Fatalf("FUnlabeled = %v", sol.FUnlabeled)
	}
	if sol.Lambda != 0 {
		t.Fatal("hard solution must report λ=0")
	}
}

// TestToyExampleSectionIII reproduces the paper's Section III toy example:
// identical inputs give w ≡ 1, and the hard solution is exactly the labeled
// mean on every unlabeled node and Y_i on labeled nodes.
func TestToyExampleSectionIII(t *testing.T) {
	const n, m = 4, 3
	// All points identical ⇒ RBF weights all 1 (self-loops included as in
	// the paper's W; they cancel in D−W).
	coo := sparse.NewCOO(n+m, n+m)
	for i := 0; i < n+m; i++ {
		for j := 0; j < n+m; j++ {
			_ = coo.Add(i, j, 1)
		}
	}
	g, err := graph.FromWeights(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	y := []float64{1, 0, 1, 1}
	p, err := NewProblemLabeledFirst(g, y)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveHard(p)
	if err != nil {
		t.Fatal(err)
	}
	mean := 3.0 / 4.0
	for k, v := range sol.FUnlabeled {
		if math.Abs(v-mean) > 1e-12 {
			t.Fatalf("unlabeled %d: f = %v, want ȳ = %v", k, v, mean)
		}
	}
	for i := 0; i < n; i++ {
		if sol.F[i] != y[i] {
			t.Fatalf("labeled %d: f = %v, want %v", i, sol.F[i], y[i])
		}
	}
}

// TestToyExampleInverseFormula verifies the paper's closed form for
// (D22−W22)⁻¹ in the toy example: diagonal (n+1)/(n(m+n)),
// off-diagonal 1/(n(m+n)).
func TestToyExampleInverseFormula(t *testing.T) {
	const n, m = 5, 4
	total := n + m
	// D22 − W22 with all-ones weights: (m+n-1) on diag, -1 off-diag (m×m).
	a := mat.NewDense(m, m)
	a.Apply(func(i, j int, _ float64) float64 {
		if i == j {
			return float64(total - 1)
		}
		return -1
	})
	ch, err := mat.NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := ch.SolveMatrix(mat.Eye(m))
	if err != nil {
		t.Fatal(err)
	}
	diagWant := float64(n+1) / float64(n*total)
	offWant := 1.0 / float64(n*total)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			want := offWant
			if i == j {
				want = diagWant
			}
			if math.Abs(inv.At(i, j)-want) > 1e-12 {
				t.Fatalf("inv[%d,%d] = %v, want %v", i, j, inv.At(i, j), want)
			}
		}
	}
}

// TestHardMethodsAgree: every backend must produce the dense Cholesky
// oracle's solution.
func TestHardMethodsAgree(t *testing.T) {
	rng := randx.New(101)
	pts := make([]float64, 15)
	for i := range pts {
		pts[i] = rng.Norm()
	}
	g := fullGraph(t, pts, 1)
	y := make([]float64, 6)
	for i := range y {
		y[i] = rng.Bernoulli(0.5)
	}
	p, err := NewProblemLabeledFirst(g, y)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := SolveHard(p, WithMethod(MethodCholesky))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodAuto, MethodCG} {
		sol, err := SolveHard(p, WithMethod(m), WithTolerance(1e-12))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !mat.VecEqual(sol.FUnlabeled, ref.FUnlabeled, 1e-6) {
			t.Fatalf("%v disagrees with Cholesky: %v vs %v", m, sol.FUnlabeled, ref.FUnlabeled)
		}
	}
}

func TestHardUnknownMethod(t *testing.T) {
	g := chainGraph(t, 3)
	p, _ := NewProblem(g, []int{0}, []float64{1})
	if _, err := SolveHard(p, WithMethod(Method(77))); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
}

// TestHardMaximumPrinciple: harmonic solutions obey min(Y) ≤ f ≤ max(Y).
func TestHardMaximumPrinciple(t *testing.T) {
	rng := randx.New(103)
	for trial := 0; trial < 10; trial++ {
		pts := make([]float64, 12)
		for i := range pts {
			pts[i] = rng.Norm() * 2
		}
		g := fullGraph(t, pts, 0.8)
		y := make([]float64, 5)
		for i := range y {
			y[i] = rng.Float64()*4 - 2
		}
		p, err := NewProblemLabeledFirst(g, y)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := SolveHard(p)
		if err != nil {
			t.Fatal(err)
		}
		ymin, _ := mat.MinVec(y)
		ymax, _ := mat.MaxVec(y)
		for k, v := range sol.FUnlabeled {
			if v < ymin-1e-9 || v > ymax+1e-9 {
				t.Fatalf("trial %d: f[%d] = %v outside [%v,%v]", trial, k, v, ymin, ymax)
			}
		}
	}
}

// TestHardHarmonicProperty: at every unlabeled node the solution equals the
// weighted average of its neighbours (the harmonic property, which is the
// first-order condition of Eq. 1).
func TestHardHarmonicProperty(t *testing.T) {
	rng := randx.New(107)
	pts := make([]float64, 10)
	for i := range pts {
		pts[i] = rng.Norm()
	}
	g := fullGraph(t, pts, 1.2)
	y := []float64{1, 0, 1}
	p, err := NewProblemLabeledFirst(g, y)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveHard(p)
	if err != nil {
		t.Fatal(err)
	}
	w := g.Weights()
	for _, u := range p.Unlabeled() {
		cols, vals := w.RowNNZ(u)
		var num, den float64
		for c, j := range cols {
			if j == u {
				continue
			}
			num += vals[c] * sol.F[j]
			den += vals[c]
		}
		if math.Abs(sol.F[u]-num/den) > 1e-9 {
			t.Fatalf("node %d not harmonic: f=%v, avg=%v", u, sol.F[u], num/den)
		}
	}
}

// TestHardSingleLabeledNodeConstant: with one labeled node on a connected
// graph, the harmonic solution is constant equal to that label.
func TestHardSingleLabeledNodeConstant(t *testing.T) {
	g := chainGraph(t, 6)
	p, err := NewProblem(g, []int{2}, []float64{0.7})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveHard(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range sol.F {
		if math.Abs(v-0.7) > 1e-10 {
			t.Fatalf("f[%d] = %v, want 0.7", i, v)
		}
	}
}

// TestHardPermutationInvariance: relabeling node order must not change the
// prediction attached to each point.
func TestHardPermutationInvariance(t *testing.T) {
	pts := []float64{0, 0.5, 1, 1.5, 2, 2.5}
	g := fullGraph(t, pts, 1)
	p1, err := NewProblem(g, []int{0, 5}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := SolveHard(p1)
	if err != nil {
		t.Fatal(err)
	}
	// Same geometry with labeled set given in reverse order.
	p2, err := NewProblem(g, []int{5, 0}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := SolveHard(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecEqual(s1.F, s2.F, 1e-12) {
		t.Fatalf("label order changed the solution: %v vs %v", s1.F, s2.F)
	}
}

// TestHardDisconnectedComponentsSolveIndependently: with two connected
// components, each labeled, predictions stay within each component.
func TestHardDisconnectedComponentsSolveIndependently(t *testing.T) {
	coo := sparse.NewCOO(6, 6)
	_ = coo.AddSym(0, 1, 1)
	_ = coo.AddSym(1, 2, 1)
	_ = coo.AddSym(3, 4, 1)
	_ = coo.AddSym(4, 5, 1)
	g, err := graph.FromWeights(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(g, []int{0, 3}, []float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveHard(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2} {
		if math.Abs(sol.F[i]-1) > 1e-10 {
			t.Fatalf("component A node %d = %v, want 1", i, sol.F[i])
		}
	}
	for _, i := range []int{4, 5} {
		if math.Abs(sol.F[i]+1) > 1e-10 {
			t.Fatalf("component B node %d = %v, want -1", i, sol.F[i])
		}
	}
}

// TestHardSelfLoopInvariance: adding self-loops to W must not change the
// hard solution (they cancel in D22−W22 and add equally to b's denominator
// structure).
func TestHardSelfLoopInvariance(t *testing.T) {
	pts := []float64{0, 1, 2, 3, 4}
	x := make([][]float64, len(pts))
	for i, v := range pts {
		x[i] = []float64{v}
	}
	kb, _ := graph.NewBuilder(kernelGaussian(t, 1))
	g1, _ := kb.Build(x)
	// The same weights with w_ii = 1, the diagonal of the paper's RBF W.
	n := g1.N()
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		cols, vals := g1.Weights().RowNNZ(i)
		for k, j := range cols {
			if err := coo.Add(i, j, vals[k]); err != nil {
				t.Fatal(err)
			}
		}
		if err := coo.Add(i, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	g2, err := graph.FromWeights(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	y := []float64{0, 1}
	p1, _ := NewProblemLabeledFirst(g1, y)
	p2, _ := NewProblemLabeledFirst(g2, y)
	s1, err := SolveHard(p1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := SolveHard(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecEqual(s1.FUnlabeled, s2.FUnlabeled, 1e-10) {
		t.Fatalf("self-loops changed the hard solution: %v vs %v", s1.FUnlabeled, s2.FUnlabeled)
	}
}

// buildHardSystemCOO is the COO assembly buildHardSystem replaced, kept as
// its differential oracle. Each coordinate gets at most two entries (a
// self-loop meets the degree on the diagonal), so the COO sum is order-free.
func buildHardSystemCOO(p *Problem) (*hardSystem, error) {
	if err := p.CheckCoverage(); err != nil {
		return nil, err
	}
	w := p.g.Weights()
	m := p.M()
	pos := make([]int, p.g.N())
	for i := range pos {
		pos[i] = -1
	}
	for k, u := range p.unlabeled {
		pos[u] = k
	}
	yAt := make([]float64, p.g.N())
	for k, l := range p.labeled {
		yAt[l] = p.y[k]
	}
	deg := w.RowSums()
	aCoo := sparse.NewCOO(m, m)
	w22Coo := sparse.NewCOO(m, m)
	b := make([]float64, m)
	d22 := make([]float64, m)
	for k, u := range p.unlabeled {
		d22[k] = deg[u]
		_ = aCoo.Add(k, k, deg[u])
		cols, vals := w.RowNNZ(u)
		for c, j := range cols {
			v := vals[c]
			if v == 0 {
				continue
			}
			if p.isLabeled[j] {
				b[k] += v * yAt[j]
				continue
			}
			_ = aCoo.Add(k, pos[j], -v)
			_ = w22Coo.Add(k, pos[j], v)
		}
	}
	return &hardSystem{a: aCoo.ToCSR(), b: b, w22: w22Coo.ToCSR(), d22: d22, pos: pos}, nil
}

// TestBuildHardSystemMatchesCOOAssembly compares the direct CSR assembly
// with the COO oracle bitwise on weighted graphs with self-loops on labeled
// and unlabeled nodes, labeled neighbours and a non-contiguous unlabeled set,
// plus unlabeled nodes whose signed weights sum to a zero degree, with and
// without a self-loop (the COO path stores no zero diagonal entry).
func TestBuildHardSystemMatchesCOOAssembly(t *testing.T) {
	sameBits := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	sameCSR := func(a, b *sparse.CSR) bool {
		if a.Rows() != b.Rows() || a.Cols() != b.Cols() || a.NNZ() != b.NNZ() {
			return false
		}
		for i := 0; i < a.Rows(); i++ {
			ac, av := a.RowNNZ(i)
			bc, bv := b.RowNNZ(i)
			if !slices.Equal(ac, bc) || !sameBits(av, bv) {
				return false
			}
		}
		return true
	}
	check := func(label string, w *sparse.COO, labeled []int, y []float64) {
		t.Helper()
		g, err := graph.FromWeights(w.ToCSR())
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProblem(g, labeled, y)
		if err != nil {
			return // every node labeled
		}
		got, err := buildHardSystem(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := buildHardSystemCOO(p)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCSR(got.a, want.a) || !sameCSR(got.w22, want.w22) || !sameBits(got.b, want.b) ||
			!sameBits(got.d22, want.d22) || !slices.Equal(got.pos, want.pos) {
			t.Fatalf("%s (labeled %v): direct assembly differs from the COO oracle", label, labeled)
		}
	}

	// Node 1 has degree 1 − 1 = 0; node 3 has degree 3 − 3 = 0 with a
	// self-loop of −3. Components follow positive weights only, so both
	// {0, 1} and {2, 3, 4} hold a label.
	zero := sparse.NewCOO(5, 5)
	_ = zero.AddSym(0, 1, 1)
	_ = zero.AddSym(1, 2, -1)
	_ = zero.AddSym(2, 3, 3)
	_ = zero.Add(3, 3, -3)
	_ = zero.AddSym(2, 4, 1)
	check("zero degrees", zero, []int{0, 4}, []float64{1, 2})

	rng := randx.New(157)
	for trial := 0; trial < 50; trial++ {
		n := 8 + rng.Intn(25)
		coo := sparse.NewCOO(n, n)
		for i := 0; i+1 < n; i++ {
			_ = coo.AddSym(i, i+1, rng.Float64()*math.Pow(10, float64(rng.Intn(7)-3)))
		}
		for e := 0; e < 2*n; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if j > i+1 {
				_ = coo.AddSym(i, j, rng.Float64())
			}
		}
		var labeled []int
		var y []float64
		for i := 0; i < n; i++ {
			if i == 0 || rng.Intn(3) == 0 {
				labeled = append(labeled, i)
				y = append(y, rng.Norm())
			}
			if i < 2 || rng.Intn(3) == 0 { // node 0 is labeled, node 1 may not be
				_ = coo.Add(i, i, rng.Float64()*math.Pow(10, float64(rng.Intn(5)-2)))
			}
		}
		check(fmt.Sprintf("trial %d (n=%d)", trial, n), coo, labeled, y)
	}
}
