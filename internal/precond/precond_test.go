package precond_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/precond"
	"repro/internal/sparse"
)

// tridiag builds the SPD tridiagonal [-1, d, -1] system of size n.
func tridiag(t *testing.T, n int, d float64) *sparse.CSR {
	t.Helper()
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		if err := coo.Add(i, i, d); err != nil {
			t.Fatal(err)
		}
		if i+1 < n {
			if err := coo.AddSym(i, i+1, -1); err != nil {
				t.Fatal(err)
			}
		}
	}
	return coo.ToCSR()
}

// gridShifted builds the side×side 5-point grid Laplacian plus a small
// diagonal shift — the classic ill-conditioned SPD test system (condition
// number grows like side²/shift).
func gridShifted(t *testing.T, side int, shift float64) *sparse.CSR {
	t.Helper()
	n := side * side
	coo := sparse.NewCOO(n, n)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			i := r*side + c
			if c+1 < side {
				if err := coo.AddSym(i, i+1, -1); err != nil {
					t.Fatal(err)
				}
			}
			if r+1 < side {
				if err := coo.AddSym(i, i+side, -1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Diagonal: neighbour count plus the shift.
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			i := r*side + c
			d := shift
			if c > 0 {
				d++
			}
			if c+1 < side {
				d++
			}
			if r > 0 {
				d++
			}
			if r+1 < side {
				d++
			}
			if err := coo.Add(i, i, d); err != nil {
				t.Fatal(err)
			}
		}
	}
	return coo.ToCSR()
}

func rhsFor(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Cos(float64(2*i + 1))
	}
	return b
}

func TestJacobiApply(t *testing.T) {
	a := tridiag(t, 8, 4)
	j, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	r := rhsFor(8)
	dst := make([]float64, 8)
	j.Apply(dst, r)
	for i := range dst {
		if want := r[i] / 4; dst[i] != want {
			t.Fatalf("Apply[%d] = %g, want %g", i, dst[i], want)
		}
	}
	if j.Name() != "jacobi" {
		t.Fatalf("name = %q", j.Name())
	}
	// SetDiag gives bitwise what Update computes from the new diagonal.
	j.SetDiag(3, 3)
	j.Apply(dst, r)
	if want := r[3] * (1.0 / 3); dst[3] != want || dst[2] != r[2]/4 {
		t.Fatalf("after SetDiag: Apply[3] = %g, want %g", dst[3], want)
	}
}

// TestIC0ExactOnTridiagonal: a tridiagonal matrix's Cholesky factor has no
// fill, so IC(0) is the exact factorization and PCG must converge in one
// iteration.
func TestIC0ExactOnTridiagonal(t *testing.T) {
	a := tridiag(t, 256, 2.5)
	ic, err := precond.NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	if ic.Name() != "ic0" {
		t.Fatalf("name = %q", ic.Name())
	}
	b := rhsFor(256)
	x, res, err := sparse.PCG(a, b, sparse.PCGOptions{
		CGOptions: sparse.CGOptions{Tol: 1e-12},
		M:         ic,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 2 {
		t.Fatalf("exact IC(0) took %d iterations, want <= 2", res.Iterations)
	}
	want, err := mat.SolveSPD(a.ToDense(), b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if d := math.Abs(x[i] - want[i]); d > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("x[%d] = %g, dense reference %g", i, x[i], want[i])
		}
	}
}

// TestIC0PCGMatchesDenseReference verifies the preconditioned solve against
// the dense factorization on an ill-conditioned grid system, and that IC(0)
// needs no more iterations than Jacobi there.
func TestIC0PCGMatchesDenseReference(t *testing.T) {
	a := gridShifted(t, 20, 1e-4)
	n := a.Rows()
	b := rhsFor(n)

	ic, err := precond.NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	x, icRes, err := sparse.PCG(a, b, sparse.PCGOptions{
		CGOptions: sparse.CGOptions{Tol: 1e-10},
		M:         ic,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := mat.SolveSPD(a.ToDense(), b)
	if err != nil {
		t.Fatal(err)
	}
	// The shifted grid is near-singular, so compare through the residual
	// scale rather than entrywise against an equally inexact reference.
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
	if icRes.Iterations > jacRes.Iterations {
		t.Fatalf("IC(0) took %d iterations, Jacobi %d — no win on the ill-conditioned grid",
			icRes.Iterations, jacRes.Iterations)
	}
}

// TestIC0UpdateMatchesFreshFactorization: a numeric refresh of an
// existing factor must agree bit-for-bit with factoring the new values
// from scratch.
func TestIC0UpdateMatchesFreshFactorization(t *testing.T) {
	a1 := tridiag(t, 64, 3)
	a2 := tridiag(t, 64, 5) // same pattern, different values
	ic, err := precond.NewIC0(a1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ic.Update(a2); err != nil {
		t.Fatal(err)
	}
	fresh, err := precond.NewIC0(a2)
	if err != nil {
		t.Fatal(err)
	}
	r := rhsFor(64)
	got := make([]float64, 64)
	want := make([]float64, 64)
	ic.Apply(got, r)
	fresh.Apply(want, r)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("updated factor differs from fresh at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// TestAutoFallsBackOnBreakdown: an indefinite matrix breaks the incomplete
// factorization; Auto must degrade to Jacobi rather than fail.
func TestAutoFallsBackOnBreakdown(t *testing.T) {
	coo := sparse.NewCOO(3, 3)
	for _, e := range []struct {
		i, j int
		v    float64
	}{{0, 0, 1}, {1, 1, 1}, {2, 2, 1}} {
		if err := coo.Add(e.i, e.j, e.v); err != nil {
			t.Fatal(err)
		}
	}
	// Off-diagonal mass far exceeding the diagonal: the first pivot update
	// drives diag² negative.
	if err := coo.AddSym(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	a := coo.ToCSR()
	if _, err := precond.NewIC0(a); !errors.Is(err, precond.ErrBreakdown) {
		t.Fatalf("NewIC0 = %v, want ErrBreakdown", err)
	}
	m, err := precond.Auto(a)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "jacobi" {
		t.Fatalf("Auto fell back to %q, want jacobi", m.Name())
	}
}

func TestAutoRejectsZeroDiagonal(t *testing.T) {
	coo := sparse.NewCOO(2, 2)
	if err := coo.Add(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := coo.AddSym(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := precond.Auto(coo.ToCSR()); err == nil {
		t.Fatal("Auto accepted a zero-diagonal matrix")
	}
}

// TestZeroDiagonalErrors: a zero diagonal entry rules out Jacobi scaling,
// both when building the preconditioner and when refreshing its values.
func TestZeroDiagonalErrors(t *testing.T) {
	coo := sparse.NewCOO(2, 2)
	if err := coo.AddSym(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := precond.NewJacobi(coo.ToCSR()); !errors.Is(err, precond.ErrZeroDiagonal) {
		t.Fatalf("NewJacobi: want ErrZeroDiagonal, got %v", err)
	}
	j, err := precond.NewJacobi(tridiag(t, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Update(coo.ToCSR()); !errors.Is(err, precond.ErrZeroDiagonal) {
		t.Fatalf("Update: want ErrZeroDiagonal, got %v", err)
	}
}

// TestIC0PCGDeterministicAcrossWorkers: the preconditioned solve must be
// bitwise-identical for every worker count, including sizes where SpMV
// takes the parallel path.
func TestIC0PCGDeterministicAcrossWorkers(t *testing.T) {
	a := tridiag(t, 5000, 2.0001) // above the serial-SpMV cutoff
	b := rhsFor(5000)
	ic, err := precond.NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	var ref []float64
	for _, w := range []int{1, 2, 3, 8} {
		x, _, err := sparse.PCG(a, b, sparse.PCGOptions{
			CGOptions: sparse.CGOptions{Tol: 1e-10, Workers: w},
			M:         ic,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = x
			continue
		}
		for i := range x {
			if x[i] != ref[i] {
				t.Fatalf("workers=%d differs from workers=1 at %d", w, i)
			}
		}
	}
}

// TestZeroAllocSolveIC0 extends the zero-allocation contract to the
// external-preconditioner path: warm PCG with a prebuilt IC(0) factor, a
// held workspace, and a destination buffer must not allocate.
func TestZeroAllocSolveIC0(t *testing.T) {
	a := tridiag(t, 512, 2.5)
	b := rhsFor(512)
	ic, err := precond.NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	ws := sparse.NewWorkspace()
	dst := make([]float64, 512)
	solve := func() {
		_, _, err := sparse.PCG(a, b, sparse.PCGOptions{
			CGOptions: sparse.CGOptions{Tol: 1e-10, X0: dst, Workers: 1},
			M:         ic,
			Dst:       dst,
			Ws:        ws,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	solve()
	if allocs := testing.AllocsPerRun(100, solve); allocs != 0 {
		t.Fatalf("warm IC(0)-PCG path allocates %.1f objects per solve, want 0", allocs)
	}
}
