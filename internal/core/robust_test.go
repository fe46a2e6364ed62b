package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/randx"
	"repro/internal/sparse"
)

// gaussProblem builds a fully connected Gaussian-graph problem over random
// points: nLab labeled, nUnl unlabeled.
func gaussProblem(t *testing.T, seed int64, nLab, nUnl int) *Problem {
	t.Helper()
	rng := randx.New(seed)
	x := make([][]float64, nLab+nUnl)
	for i := range x {
		x[i] = []float64{rng.Norm(), rng.Norm()}
	}
	b, err := graph.NewBuilder(kernel.MustNew(kernel.Gaussian, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Build(x)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, nLab)
	for i := range y {
		y[i] = rng.Bernoulli(0.5)
	}
	p, err := NewProblemLabeledFirst(g, y)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProbeHealthWellConditioned(t *testing.T) {
	p := gaussProblem(t, 3, 10, 20)
	sys, err := buildHardSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ProbeHealth(sys.a)
	if err != nil {
		t.Fatal(err)
	}
	if h.Unknowns != 20 {
		t.Fatalf("unknowns = %d", h.Unknowns)
	}
	if h.ZeroDiagonal {
		t.Fatal("well-conditioned system flagged zero diagonal")
	}
	if h.JacobiSpectralRadius >= 1 {
		t.Fatalf("spectral radius %v >= 1 on an SPD hard system", h.JacobiSpectralRadius)
	}
	if math.IsInf(h.ConditionProxy, 1) || h.ConditionProxy < 1 {
		t.Fatalf("condition proxy %v implausible", h.ConditionProxy)
	}
	// D22 − W22 keeps the labeled mass on the diagonal, so it is strictly
	// diagonally dominant on this fully connected graph.
	if h.MinDiagDominance <= 1 {
		t.Fatalf("min dominance %v, want > 1", h.MinDiagDominance)
	}
}

func TestProbeHealthDeterministic(t *testing.T) {
	p := gaussProblem(t, 5, 8, 25)
	sys, err := buildHardSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := ProbeHealth(sys.a)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := ProbeHealth(sys.a)
	if err != nil {
		t.Fatal(err)
	}
	if h1.JacobiSpectralRadius != h2.JacobiSpectralRadius ||
		h1.ConditionProxy != h2.ConditionProxy ||
		h1.MinDiagDominance != h2.MinDiagDominance {
		t.Fatalf("probe not deterministic: %+v vs %+v", h1, h2)
	}
}

func TestProbeHealthZeroDiagonal(t *testing.T) {
	coo := sparse.NewCOO(3, 3)
	_ = coo.Add(0, 0, 1)
	_ = coo.Add(1, 1, 2)
	// Row 2 is entirely empty: an isolated node's system row.
	h, err := ProbeHealth(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	if !h.ZeroDiagonal {
		t.Fatal("zero diagonal not flagged")
	}
	if len(h.Warnings) == 0 {
		t.Fatal("no warning raised for singular diagonal")
	}
	if !math.IsInf(h.ConditionProxy, 1) {
		t.Fatalf("condition proxy %v, want +Inf", h.ConditionProxy)
	}
}

// denseJacobiRadius is ρ(I − D^(−1/2) A D^(−1/2)) of a symmetric matrix
// with a positive diagonal, from the dense symmetric eigensolver.
func denseJacobiRadius(t testing.TB, a *mat.Dense) float64 {
	t.Helper()
	n, _ := a.Dims()
	s := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := -a.At(i, j) / math.Sqrt(a.At(i, i)) / math.Sqrt(a.At(j, j))
			if i == j {
				v++
			}
			s.Set(i, j, v)
			s.Set(j, i, v)
		}
	}
	eig, err := mat.NewEigenSym(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	return math.Max(math.Abs(eig.Values[0]), math.Abs(eig.Values[n-1]))
}

// checkProbeRadius asserts the probe's ρ against the dense value: never
// above it beyond rounding (Ritz values lie inside the spectrum), and
// within 1e-9 of it.
func checkProbeRadius(t testing.TB, label string, rho, want float64) {
	t.Helper()
	if rho > want+1e-12*math.Max(1, rho) {
		t.Fatalf("%s: probe ρ %v exceeds the dense %v", label, rho, want)
	}
	if math.Abs(rho-want) > 1e-9 {
		t.Fatalf("%s: probe ρ %v, dense %v", label, rho, want)
	}
}

// TestProbeHealthMatchesDenseEigen compares the probe's Lanczos estimate
// with the dense eigensolver on hard, soft and signed-weight systems, each
// with fewer unknowns than the 50-step cap.
func TestProbeHealthMatchesDenseEigen(t *testing.T) {
	hard := func(p *Problem) *sparse.CSR {
		sys, err := buildHardSystem(p)
		if err != nil {
			t.Fatal(err)
		}
		return sys.a
	}
	soft := func(p *Problem, lambda float64) *sparse.CSR {
		lap, err := p.g.Laplacian(graph.Unnormalized)
		if err != nil {
			t.Fatal(err)
		}
		n := p.g.N()
		coo := sparse.NewCOO(n, n)
		for i := 0; i < n; i++ {
			cols, vals := lap.RowNNZ(i)
			for k, j := range cols {
				_ = coo.Add(i, j, lambda*vals[k])
			}
		}
		for _, l := range p.labeled {
			_ = coo.Add(l, l, 1)
		}
		return coo.ToCSR()
	}
	// A ring with positive weights, a few negative chords and labels at
	// nodes 0 and 12.
	ring := sparse.NewCOO(24, 24)
	for i := 0; i < 24; i++ {
		_ = ring.AddSym(i, (i+1)%24, 1+float64(i%3)/2)
	}
	for _, c := range [][2]int{{2, 9}, {5, 17}, {14, 21}} {
		_ = ring.AddSym(c[0], c[1], -0.4)
	}
	g, err := graph.FromWeights(ring.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	signed, err := NewProblem(g, []int{0, 12}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		a    *sparse.CSR
	}{
		{"hard", hard(gaussProblem(t, 7, 10, 30))},
		{"soft", soft(gaussProblem(t, 9, 8, 30), 0.5)},
		{"signed", hard(signed)},
	}
	for _, tc := range cases {
		if n := tc.a.Rows(); n >= 50 {
			t.Fatalf("%s: %d unknowns, want fewer than the step cap", tc.name, n)
		}
		h, err := ProbeHealth(tc.a)
		if err != nil {
			t.Fatal(err)
		}
		checkProbeRadius(t, tc.name, h.JacobiSpectralRadius, denseJacobiRadius(t, tc.a.ToDense()))
	}
}

// TestProbeHealthIndefiniteHardSystem reaches the probe's ρ >= 1 branch:
// signed weights, which FitGraph rejects, give a hard system with a
// positive diagonal that is not positive definite, so the plan skips CG
// and the Cholesky that replaces it fails typed.
func TestProbeHealthIndefiniteHardSystem(t *testing.T) {
	// Nodes 0 and 3 are labeled. The negative edges to node 3 cancel most
	// of the unlabeled degrees: A = [[2, −10], [−10, 2]], whose eigenvalues
	// are −8 and 12, so ρ(I − D^(−1/2) A D^(−1/2)) = 5.
	coo := sparse.NewCOO(4, 4)
	_ = coo.AddSym(0, 1, 1)
	_ = coo.AddSym(0, 2, 1)
	_ = coo.AddSym(1, 2, 10)
	_ = coo.AddSym(1, 3, -9)
	_ = coo.AddSym(2, 3, -9)
	g, err := graph.FromWeights(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(g, []int{0, 3}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := buildHardSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ProbeHealth(sys.a)
	if err != nil {
		t.Fatal(err)
	}
	if h.ZeroDiagonal {
		t.Fatalf("health %+v, want a positive diagonal", h)
	}
	if h.JacobiSpectralRadius < 1 || math.Abs(h.JacobiSpectralRadius-5) > 1e-9 {
		t.Fatalf("ρ = %v, want 5", h.JacobiSpectralRadius)
	}
	if !math.IsInf(h.ConditionProxy, 1) {
		t.Fatalf("condition proxy %v, want +Inf", h.ConditionProxy)
	}
	if plan, _ := planAuto(h, sys.a.Rows(), 1); len(plan) != 1 || plan[0] != MethodCholesky {
		t.Fatalf("plan %v, want [cholesky]", plan)
	}
	_, err = SolveHard(p, WithAutoCutoff(1))
	if !errors.Is(err, ErrSolver) || !errors.Is(err, mat.ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrSolver wrapping mat.ErrNotPositiveDefinite", err)
	}
}

// TestProbeHealthWorkersBitwise runs the probe above the parallel SpMV
// threshold (4,096 rows): the estimate must be bitwise the same for one
// and two workers, and through ProbeHealth.
func TestProbeHealthWorkersBitwise(t *testing.T) {
	const n = 5000
	var labeled []int
	var y []float64
	for i := 0; i < n; i += 100 {
		labeled = append(labeled, i)
		y = append(y, float64(i%3))
	}
	p, err := NewProblem(chainGraph(t, n), labeled, y)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := buildHardSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := probeHealth(sys.a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Unknowns < 4096 || ref.JacobiSpectralRadius <= 0 || ref.JacobiSpectralRadius >= 1 {
		t.Fatalf("reference probe %+v implausible", ref)
	}
	for _, probe := range []func() (*Health, error){
		func() (*Health, error) { return probeHealth(sys.a, 2) },
		func() (*Health, error) { return ProbeHealth(sys.a) },
	} {
		h, err := probe()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(h.JacobiSpectralRadius) != math.Float64bits(ref.JacobiSpectralRadius) ||
			math.Float64bits(h.ConditionProxy) != math.Float64bits(ref.ConditionProxy) {
			t.Fatalf("ρ %v (proxy %v), serial %v (proxy %v)", h.JacobiSpectralRadius, h.ConditionProxy,
				ref.JacobiSpectralRadius, ref.ConditionProxy)
		}
	}
}

func TestPlanAutoIsPureAndSizeGated(t *testing.T) {
	small, reason := planAuto(nil, 100, 2048)
	if len(small) != 1 || small[0] != MethodCholesky {
		t.Fatalf("small plan = %v (%s)", small, reason)
	}
	healthy := &Health{JacobiSpectralRadius: 0.9, ConditionProxy: 19}
	large, _ := planAuto(healthy, 5000, 2048)
	if len(large) != 2 || large[0] != MethodCG || large[1] != MethodCholesky {
		t.Fatalf("large plan = %v", large)
	}
	sick := &Health{JacobiSpectralRadius: 1.0, ConditionProxy: math.Inf(1)}
	demoted, _ := planAuto(sick, 5000, 2048)
	if demoted[0] == MethodCG {
		t.Fatalf("near-singular system still plans CG first: %v", demoted)
	}
	// Pure: same inputs, same plan.
	again, _ := planAuto(healthy, 5000, 2048)
	for i := range large {
		if large[i] != again[i] {
			t.Fatal("plan not reproducible")
		}
	}
}

// TestPlanAutoCapsDenseSize: above the cutoff and the dense cap, no probe
// outcome may plan a dense backend, so the auto chain densifies no system
// that large; at the cap the plans are the historical ones.
func TestPlanAutoCapsDenseSize(t *testing.T) {
	n := maxDenseUnknowns + 1
	for _, c := range []struct {
		name string
		h    *Health
	}{
		{"no probe", nil},
		{"zero diagonal", &Health{ZeroDiagonal: true, JacobiSpectralRadius: math.Inf(1), ConditionProxy: math.Inf(1)}},
		{"rho >= 1", &Health{JacobiSpectralRadius: 1, ConditionProxy: math.Inf(1)}},
		{"condition proxy", &Health{JacobiSpectralRadius: 1 - 1e-12, ConditionProxy: 2e12}},
		{"healthy", &Health{JacobiSpectralRadius: 0.9, ConditionProxy: 19}},
	} {
		plan, reason := planAuto(c.h, n, 0)
		if len(plan) != 1 || plan[0] != MethodCG || !strings.Contains(reason, strconv.Itoa(maxDenseUnknowns)) {
			t.Errorf("%s: plan = %v (%s), want [cg] for the dense cap", c.name, plan, reason)
		}
	}
	sick, _ := planAuto(&Health{JacobiSpectralRadius: 1, ConditionProxy: math.Inf(1)}, maxDenseUnknowns, 0)
	if len(sick) != 1 || sick[0] != MethodCholesky {
		t.Errorf("at the cap a near-singular system plans %v, want [cholesky]", sick)
	}
	healthy, _ := planAuto(&Health{JacobiSpectralRadius: 0.9, ConditionProxy: 19}, maxDenseUnknowns, 0)
	if len(healthy) != 2 || healthy[0] != MethodCG || healthy[1] != MethodCholesky {
		t.Errorf("at the cap a healthy system plans %v, want [cg cholesky]", healthy)
	}
}

// shiftedGridCSR builds the side×side 5-point grid Laplacian plus a small
// diagonal shift: a large-diameter SPD system on which IC(0)-CG stagnates.
func shiftedGridCSR(t *testing.T, side int, shift float64) *sparse.CSR {
	t.Helper()
	n := side * side
	coo := sparse.NewCOO(n, n)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			i := r*side + c
			d := shift
			if c+1 < side {
				if err := coo.AddSym(i, i+1, -1); err != nil {
					t.Fatal(err)
				}
				d++
			}
			if r+1 < side {
				if err := coo.AddSym(i, i+side, -1); err != nil {
					t.Fatal(err)
				}
				d++
			}
			if c > 0 {
				d++
			}
			if r > 0 {
				d++
			}
			if err := coo.Add(i, i, d); err != nil {
				t.Fatal(err)
			}
		}
	}
	return coo.ToCSR()
}

// TestAutoChainStagnationAboveDenseCap: on a system past the dense cap a
// stagnating IC(0)-CG head ends the chain with its own typed error instead
// of escalating to a dense factorization (10,000 unknowns: an 800 MB copy
// and a Cholesky of about 20 s). The chain itself takes tens of
// milliseconds, under a second with the race detector.
func TestAutoChainStagnationAboveDenseCap(t *testing.T) {
	a := shiftedGridCSR(t, 100, 1e-6)
	b := make([]float64, a.Rows())
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	cfg, err := newSolveConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	x, _, _, tr, err := runChain(nil, system{a: a, b: b}, cfg)
	elapsed := time.Since(start)
	if !errors.Is(err, sparse.ErrStagnated) || x != nil {
		t.Fatalf("want an error wrapping ErrStagnated, got %v", err)
	}
	if len(tr.Plan) != 1 || tr.Plan[0] != MethodCG || len(tr.Attempts) != 1 || len(tr.Fallbacks) != 0 {
		t.Fatalf("plan %v, attempts %+v, fallbacks %+v: want one CG attempt", tr.Plan, tr.Attempts, tr.Fallbacks)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("chain took %v", elapsed)
	}
}

// TestAutoProbeAboveDenseCapOnRequest: above maxDenseUnknowns the plan is
// CG alone whatever the probe reads, so the chain probes only under
// WithHealthProbe. Without it the trace carries no Health; with it the
// trace does. The solution, plan and attempts are the same both ways, bit
// for bit.
func TestAutoProbeAboveDenseCapOnRequest(t *testing.T) {
	a := shiftedGridCSR(t, 91, 0.05) // 8,281 unknowns
	b := make([]float64, a.Rows())
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	run := func(opts ...SolveOption) ([]float64, *SolveTrace) {
		t.Helper()
		cfg, err := newSolveConfig(append([]SolveOption{WithWorkers(1)}, opts...))
		if err != nil {
			t.Fatal(err)
		}
		x, _, m, tr, err := runChain(nil, system{a: a, b: b}, cfg)
		if err != nil || m != MethodCG {
			t.Fatalf("chain settled on %v: %v", m, err)
		}
		return x, tr
	}
	x, plain := run()
	xp, probed := run(WithHealthProbe())
	if plain.Health != nil {
		t.Fatal("auto solve above the dense cap ran the probe without WithHealthProbe")
	}
	if probed.Health == nil || probed.Health.Unknowns != a.Rows() {
		t.Fatalf("WithHealthProbe trace health = %+v", probed.Health)
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(xp[i]) {
			t.Fatalf("solution differs at %d with the probe", i)
		}
	}
	if !slices.Equal(plain.Plan, probed.Plan) || plain.PlanReason != probed.PlanReason {
		t.Fatalf("plan %v (%s), probed %v (%s)", plain.Plan, plain.PlanReason, probed.Plan, probed.PlanReason)
	}
	if len(plain.Attempts) != 1 || len(probed.Attempts) != 1 {
		t.Fatalf("attempts %+v, probed %+v", plain.Attempts, probed.Attempts)
	}
	pa, qa := plain.Attempts[0], probed.Attempts[0]
	if pa.Method != qa.Method || pa.Iterations != qa.Iterations || math.Float64bits(pa.Residual) != math.Float64bits(qa.Residual) ||
		pa.Precond != qa.Precond || pa.Err != qa.Err {
		t.Fatalf("attempt %+v, probed %+v", pa, qa)
	}
}

// TestAutoFallbackChainCompletes forces the CG head of the chain to fail
// (one-iteration budget at tight tolerance) and checks the solve still
// completes via the dense fallback, with the escalation recorded.
func TestAutoFallbackChainCompletes(t *testing.T) {
	p := gaussProblem(t, 7, 10, 40)
	// Jacobi keeps the one-iteration budget insufficient; IC(0) is exact on
	// this dense-pattern system and would converge immediately.
	sol, err := SolveHard(p, WithAutoCutoff(1), WithMaxIter(1), WithTolerance(1e-14),
		WithPreconditioner(PrecondJacobi))
	if err != nil {
		t.Fatalf("chain did not complete: %v", err)
	}
	if sol.Method != MethodCholesky {
		t.Fatalf("chain settled on %v, want cholesky after CG failure", sol.Method)
	}
	tr := sol.Trace
	if tr == nil {
		t.Fatal("auto solve returned no trace")
	}
	if len(tr.Plan) != 2 || tr.Plan[0] != MethodCG || tr.Plan[1] != MethodCholesky {
		t.Fatalf("plan = %v", tr.Plan)
	}
	if len(tr.Fallbacks) != 1 || tr.Fallbacks[0].From != MethodCG || tr.Fallbacks[0].To != MethodCholesky {
		t.Fatalf("fallbacks = %+v", tr.Fallbacks)
	}
	if len(tr.Attempts) != 2 || tr.Attempts[0].Err == "" || tr.Attempts[1].Err != "" {
		t.Fatalf("attempts = %+v", tr.Attempts)
	}
	if tr.Health == nil {
		t.Fatal("large-plan auto solve carried no health probe")
	}

	// The fallback answer must match the directly chosen dense backend.
	want, err := SolveHard(p, WithMethod(MethodCholesky))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.FUnlabeled {
		if sol.FUnlabeled[i] != want.FUnlabeled[i] {
			t.Fatalf("fallback solution differs from cholesky at %d", i)
		}
	}
}

// TestAutoSmallSystemMatchesLegacyDense pins the compatibility contract:
// below the cutoff, MethodAuto is dense Cholesky, bitwise.
func TestAutoSmallSystemMatchesLegacyDense(t *testing.T) {
	p := gaussProblem(t, 9, 12, 30)
	auto, err := SolveHard(p)
	if err != nil {
		t.Fatal(err)
	}
	chol, err := SolveHard(p, WithMethod(MethodCholesky))
	if err != nil {
		t.Fatal(err)
	}
	if auto.Method != MethodCholesky {
		t.Fatalf("small auto chose %v", auto.Method)
	}
	for i := range chol.FUnlabeled {
		if auto.FUnlabeled[i] != chol.FUnlabeled[i] {
			t.Fatalf("auto differs from cholesky at %d", i)
		}
	}
}

// TestFallbackDecisionDeterministicAcrossWorkers reruns an auto solve that
// starts at CG under several worker counts: the plan, the chosen backend,
// and the scores must be identical.
func TestFallbackDecisionDeterministicAcrossWorkers(t *testing.T) {
	p := gaussProblem(t, 21, 15, 60)
	var ref *Solution
	for _, w := range []int{1, 2, 4} {
		sol, err := SolveHard(p, WithAutoCutoff(1), WithWorkers(w))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if sol.Trace == nil || len(sol.Trace.Plan) == 0 {
			t.Fatalf("workers=%d: missing trace", w)
		}
		if ref == nil {
			ref = sol
			continue
		}
		if sol.Method != ref.Method {
			t.Fatalf("workers=%d chose %v, workers=1 chose %v", w, sol.Method, ref.Method)
		}
		if len(sol.Trace.Fallbacks) != len(ref.Trace.Fallbacks) {
			t.Fatalf("workers=%d fallback count differs", w)
		}
		for i := range ref.FUnlabeled {
			if sol.FUnlabeled[i] != ref.FUnlabeled[i] {
				t.Fatalf("workers=%d: scores differ at %d", w, i)
			}
		}
	}
}

func TestSolveCancellation(t *testing.T) {
	p := gaussProblem(t, 31, 10, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []Method{MethodAuto, MethodCholesky, MethodCG} {
		if _, err := SolveHard(p, WithMethod(m), WithContext(ctx)); !errors.Is(err, context.Canceled) {
			t.Fatalf("hard %v: err = %v, want context.Canceled", m, err)
		}
	}
	if _, err := SolveSoft(p, 0.5, WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Fatalf("soft: err = %v, want context.Canceled", err)
	}
	if _, err := SoftSweep(p, []float64{0.1, 1}, WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep: err = %v, want context.Canceled", err)
	}
}

// TestCancellationIsNotEscalated checks a canceled context aborts the auto
// chain instead of falling back to the next backend.
func TestCancellationIsNotEscalated(t *testing.T) {
	p := gaussProblem(t, 33, 10, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SolveHard(p, WithAutoCutoff(1), WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestWithHealthProbeOnSmallAuto(t *testing.T) {
	p := gaussProblem(t, 35, 8, 20)
	sol, err := SolveHard(p, WithHealthProbe())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Trace == nil || sol.Trace.Health == nil {
		t.Fatal("WithHealthProbe did not attach a probe to the trace")
	}
	bare, err := SolveHard(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bare.FUnlabeled {
		if sol.FUnlabeled[i] != bare.FUnlabeled[i] {
			t.Fatal("probing changed the solution")
		}
	}
}
