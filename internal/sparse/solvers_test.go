package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// randSPDCSR builds a random sparse strictly diagonally dominant SPD matrix.
func randSPDCSR(rng *rand.Rand, n int) *CSR {
	coo := NewCOO(n, n)
	rowAbs := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.3 {
				v := rng.NormFloat64()
				_ = coo.AddSym(i, j, v)
				rowAbs[i] += math.Abs(v)
				rowAbs[j] += math.Abs(v)
			}
		}
	}
	for i := 0; i < n; i++ {
		_ = coo.Add(i, i, rowAbs[i]+1+rng.Float64())
	}
	return coo.ToCSR()
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func checkSolve(t *testing.T, name string, a *CSR, x, b []float64) {
	t.Helper()
	ax, err := a.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	if r := mat.NormInf(mat.SubVec(ax, b)); r > 1e-7 {
		t.Fatalf("%s: residual %g too large", name, r)
	}
}

func TestCGSolvesSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(30)
		a := randSPDCSR(rng, n)
		b := randVec(rng, n)
		x, res, err := CG(a, b, CGOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v (res=%+v)", trial, err, res)
		}
		checkSolve(t, "CG", a, x, b)
		if res.Iterations > 10*n+100 {
			t.Fatalf("trial %d: too many iterations %d", trial, res.Iterations)
		}
	}
}

// diagScale is a test-local Jacobi preconditioner, dst[i] = r[i] / a_ii
// (internal/precond imports this package, so its Jacobi is out of reach
// here).
type diagScale struct{ inv []float64 }

func newDiagScale(a *CSR) *diagScale {
	inv := a.Diag()
	for i, d := range inv {
		inv[i] = 1 / d
	}
	return &diagScale{inv: inv}
}

func (d *diagScale) Apply(dst, r []float64) {
	for i := range dst {
		dst[i] = d.inv[i] * r[i]
	}
}

func TestCGPreconditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := randSPDCSR(rng, 40)
	b := randVec(rng, 40)
	x, _, err := PCG(a, b, PCGOptions{M: newDiagScale(a)})
	if err != nil {
		t.Fatal(err)
	}
	checkSolve(t, "PCG", a, x, b)
}

func TestCGWithX0(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := randSPDCSR(rng, 10)
	b := randVec(rng, 10)
	exact, _, err := CG(a, b, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm start from the exact solution converges immediately.
	x, res, err := CG(a, b, CGOptions{X0: exact})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 {
		t.Fatalf("warm-started CG took %d iterations", res.Iterations)
	}
	checkSolve(t, "CG warm", a, x, b)
}

func TestCGZeroRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	a := randSPDCSR(rng, 5)
	x, _, err := CG(a, make([]float64, 5), CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mat.NormInf(x) != 0 {
		t.Fatalf("CG with b=0 should return 0, got %v", x)
	}
}

func TestCGShapeErrors(t *testing.T) {
	a := randSPDCSR(rand.New(rand.NewSource(1)), 4)
	if _, _, err := CG(a, []float64{1}, CGOptions{}); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
	if _, _, err := CG(a, make([]float64, 4), CGOptions{X0: []float64{1}}); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape for bad X0, got %v", err)
	}
}

func TestCGIndefiniteFails(t *testing.T) {
	coo := NewCOO(2, 2)
	_ = coo.Add(0, 0, 1)
	_ = coo.Add(1, 1, -1)
	a := coo.ToCSR()
	if _, _, err := CG(a, []float64{1, 1}, CGOptions{}); err == nil {
		t.Fatal("CG on indefinite matrix must fail")
	}
}

func TestIterativeSolversAgreeWithDense(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	a := randSPDCSR(rng, 15)
	b := randVec(rng, 15)
	want, err := mat.SolveSPD(a.ToDense(), b)
	if err != nil {
		t.Fatal(err)
	}
	xcg, _, err := CG(a, b, CGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecEqual(xcg, want, 1e-7) {
		t.Fatal("CG disagrees with dense solve")
	}
}
