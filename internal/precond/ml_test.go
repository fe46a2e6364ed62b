package precond_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/precond"
	"repro/internal/sparse"
)

// TestMLPCGMatchesDenseReference: multilevel-preconditioned PCG on the
// ill-conditioned shifted grid must reproduce the dense solve and beat the
// Jacobi-preconditioned iteration count — the coarse levels are exactly
// what diagonal scaling lacks there.
func TestMLPCGMatchesDenseReference(t *testing.T) {
	a := gridShifted(t, 40, 1e-4) // n=1600: a real hierarchy, not just the dense tail
	n := a.Rows()
	b := rhsFor(n)

	ml, err := precond.NewML(a)
	if err != nil {
		t.Fatal(err)
	}
	if ml.Name() != "ml" {
		t.Fatalf("name = %q", ml.Name())
	}
	x, mlRes, err := sparse.PCG(a, b, sparse.PCGOptions{
		CGOptions: sparse.CGOptions{Tol: 1e-10},
		M:         ml,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := mat.SolveSPD(a.ToDense(), b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if d := math.Abs(x[i] - want[i]); d > 1e-4*(1+math.Abs(want[i])) {
			t.Fatalf("x[%d] = %g, dense reference %g", i, x[i], want[i])
		}
	}

	jac, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	_, jacRes, err := sparse.PCG(a, b, sparse.PCGOptions{CGOptions: sparse.CGOptions{Tol: 1e-10}, M: jac})
	if err != nil {
		t.Fatal(err)
	}
	if mlRes.Iterations >= jacRes.Iterations {
		t.Fatalf("ML took %d iterations, Jacobi %d — coarse correction bought nothing",
			mlRes.Iterations, jacRes.Iterations)
	}
}

// TestMLSymmetricPositiveDefinite: PCG requires M⁻¹ symmetric positive
// definite. The V-cycle is built to be symmetric (mirrored smoothing
// sweeps, exact coarse solve); verify ⟨M⁻¹u, v⟩ = ⟨u, M⁻¹v⟩ and
// ⟨M⁻¹u, u⟩ > 0 on a spread of deterministic vectors.
func TestMLSymmetricPositiveDefinite(t *testing.T) {
	a := gridShifted(t, 25, 1e-3)
	n := a.Rows()
	ml, err := precond.NewML(a)
	if err != nil {
		t.Fatal(err)
	}
	u := make([]float64, n)
	v := make([]float64, n)
	mu := make([]float64, n)
	mv := make([]float64, n)
	for trial := 0; trial < 5; trial++ {
		for i := range u {
			u[i] = math.Cos(float64(i*(trial+1)) + 0.3)
			v[i] = math.Sin(float64(i*(trial+2)) * 0.7)
		}
		ml.Apply(mu, u)
		ml.Apply(mv, v)
		var muv, umv, muu, uu float64
		for i := range u {
			muv += mu[i] * v[i]
			umv += u[i] * mv[i]
			muu += mu[i] * u[i]
			uu += u[i] * u[i]
		}
		if d := math.Abs(muv - umv); d > 1e-10*(1+math.Abs(muv)) {
			t.Fatalf("trial %d: <Mu,v>=%g but <u,Mv>=%g — V-cycle not symmetric", trial, muv, umv)
		}
		if muu <= 0 {
			t.Fatalf("trial %d: <Mu,u> = %g, want > 0 (|u|²=%g)", trial, muu, uu)
		}
	}
}

// TestMLApplyDeterministic: repeated Apply on the same input must be
// bitwise-identical — the PCG reproducibility contract extends through the
// preconditioner.
func TestMLApplyDeterministic(t *testing.T) {
	a := gridShifted(t, 30, 1e-3)
	n := a.Rows()
	ml, err := precond.NewML(a)
	if err != nil {
		t.Fatal(err)
	}
	r := rhsFor(n)
	first := make([]float64, n)
	again := make([]float64, n)
	ml.Apply(first, r)
	ml.Apply(again, r)
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("Apply not reproducible at %d: %g vs %g", i, first[i], again[i])
		}
	}
}

// TestMLAssignedPCGConverges: the hierarchy fed by external (spatially
// derived) aggregate assignments must behave like the matrix-based one.
// Pair-aggregation on the tridiagonal chain is the 1D model problem.
func TestMLAssignedPCGConverges(t *testing.T) {
	n := 2048
	a := tridiag(t, n, 2.0001)
	// Two externally supplied levels of pair aggregation: 2048 -> 1024 -> 512,
	// then the dense tail takes over (512 > mlCoarseMax keeps one more greedy
	// stop from mattering: buildML stops when assignments run out).
	var assign [][]int32
	for ln := n; ln > 256; ln /= 2 {
		lvl := make([]int32, ln)
		for i := range lvl {
			lvl[i] = int32(i / 2)
		}
		assign = append(assign, lvl)
	}
	ml, err := precond.NewMLAssigned(a, assign)
	if err != nil {
		t.Fatal(err)
	}
	b := rhsFor(n)
	x, _, err := sparse.PCG(a, b, sparse.PCGOptions{
		CGOptions: sparse.CGOptions{Tol: 1e-10},
		M:         ml,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Residual check against the operator (dense reference at n=2048 is slow).
	ax := make([]float64, n)
	if err := a.MulVecTo(ax, x); err != nil {
		t.Fatal(err)
	}
	var rn, bn float64
	for i := range b {
		d := b[i] - ax[i]
		rn += d * d
		bn += b[i] * b[i]
	}
	if math.Sqrt(rn) > 1e-8*math.Sqrt(bn) {
		t.Fatalf("relative residual %g after ML-assigned PCG", math.Sqrt(rn)/math.Sqrt(bn))
	}
}

// TestMLNoHierarchy: a diagonal system's graph has no edges, so greedy
// aggregation stalls; above the dense-tail cap that must surface as
// ErrNoHierarchy (the auto chain then keeps IC(0)).
func TestMLNoHierarchy(t *testing.T) {
	n := 2000
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		if err := coo.Add(i, i, 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := precond.NewML(coo.ToCSR()); !errors.Is(err, precond.ErrNoHierarchy) {
		t.Fatalf("NewML on edgeless graph = %v, want ErrNoHierarchy", err)
	}
}

// TestZeroAllocSolveML extends the zero-allocation contract to the
// multilevel path: warm PCG with a prebuilt hierarchy, a held workspace,
// and a destination buffer must not allocate.
func TestZeroAllocSolveML(t *testing.T) {
	a := gridShifted(t, 32, 1e-3)
	n := a.Rows()
	b := rhsFor(n)
	ml, err := precond.NewML(a)
	if err != nil {
		t.Fatal(err)
	}
	ws := sparse.NewWorkspace()
	dst := make([]float64, n)
	solve := func() {
		_, _, err := sparse.PCG(a, b, sparse.PCGOptions{
			CGOptions: sparse.CGOptions{Tol: 1e-8, X0: dst, Workers: 1},
			M:         ml,
			Dst:       dst,
			Ws:        ws,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	solve()
	if allocs := testing.AllocsPerRun(100, solve); allocs != 0 {
		t.Fatalf("warm ML-PCG path allocates %.1f objects per solve, want 0", allocs)
	}
}
