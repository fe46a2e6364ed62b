package sparse_test

import (
	"testing"

	"repro/internal/precond"
	"repro/internal/sparse"
)

// zeroAllocSystem builds a 512-unknown SPD tridiagonal system, small enough
// that SpMV stays on the serial inline path.
func zeroAllocSystem(t *testing.T) (*sparse.CSR, []float64) {
	t.Helper()
	n := 512
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		if err := coo.Add(i, i, 2.5); err != nil {
			t.Fatal(err)
		}
		if i+1 < n {
			if err := coo.AddSym(i, i+1, -1); err != nil {
				t.Fatal(err)
			}
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	return coo.ToCSR(), b
}

// TestZeroAllocSolve pins the zero-allocation contract of the warm
// Jacobi-preconditioned PCG path: with a caller-held Workspace,
// preconditioner and destination buffer, repeated solves must not touch
// the heap. CI runs this as an allocation-regression gate.
func TestZeroAllocSolve(t *testing.T) {
	a, b := zeroAllocSystem(t)
	n := a.Rows()
	m, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	ws := sparse.NewWorkspace() // unpooled: no sync.Pool effects in the measurement
	dst := make([]float64, n)
	solve := func() {
		_, _, err := sparse.PCG(a, b, sparse.PCGOptions{
			CGOptions: sparse.CGOptions{Tol: 1e-10, X0: dst, Workers: 1},
			M:         m,
			Dst:       dst,
			Ws:        ws,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	solve() // warm: grow workspace buffers once
	if allocs := testing.AllocsPerRun(100, solve); allocs != 0 {
		t.Fatalf("warm PCG path allocates %.1f objects per solve, want 0", allocs)
	}
}

// TestZeroAllocSolveUnpreconditioned covers the plain-CG variant of the
// same contract.
func TestZeroAllocSolveUnpreconditioned(t *testing.T) {
	a, b := zeroAllocSystem(t)
	n := a.Rows()
	ws := sparse.NewWorkspace()
	dst := make([]float64, n)
	solve := func() {
		_, _, err := sparse.PCG(a, b, sparse.PCGOptions{
			CGOptions: sparse.CGOptions{Tol: 1e-10, X0: dst, Workers: 1},
			Dst:       dst,
			Ws:        ws,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	solve()
	if allocs := testing.AllocsPerRun(100, solve); allocs != 0 {
		t.Fatalf("warm CG path allocates %.1f objects per solve, want 0", allocs)
	}
}
