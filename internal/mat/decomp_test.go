package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randSPD returns a random symmetric positive definite matrix AᵀA + n·I.
func randSPD(rng *rand.Rand, n int) *Dense {
	a := randDense(rng, n, n)
	ata, _ := Mul(a.T(), a)
	for i := 0; i < n; i++ {
		ata.Set(i, i, ata.At(i, i)+float64(n))
	}
	return ata
}

func residual(a *Dense, x, b []float64) float64 {
	ax, _ := MulVec(a, x)
	return NormInf(SubVec(ax, b))
}

func TestLUSolveKnown(t *testing.T) {
	a, _ := NewDenseData(2, 2, []float64{2, 1, 1, 3})
	x, err := SolveLU(a, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	// Solution of [2 1;1 3] x = [3;5] is x = [0.8, 1.4].
	if !VecEqual(x, []float64{0.8, 1.4}, 1e-14) {
		t.Fatalf("SolveLU = %v", x)
	}
}

func TestLUSolveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		a := randDense(rng, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)) // keep well-conditioned
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveLU(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if r := residual(a, x, b); r > 1e-9 {
			t.Fatalf("trial %d: residual %g too large", trial, r)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a, _ := NewDenseData(2, 2, []float64{1, 2, 2, 4})
	if _, err := NewLU(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := NewLU(NewDense(2, 3)); !errors.Is(err, ErrSquare) {
		t.Fatalf("want ErrSquare, got %v", err)
	}
}

func TestLUDet(t *testing.T) {
	a, _ := NewDenseData(2, 2, []float64{3, 1, 4, 2})
	f, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Det(); math.Abs(d-2) > 1e-13 {
		t.Fatalf("Det = %v, want 2", d)
	}
}

func TestLUDetPermutationSign(t *testing.T) {
	// A matrix that forces a row swap: det([[0,1],[1,0]]) = -1.
	a, _ := NewDenseData(2, 2, []float64{0, 1, 1, 0})
	f, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Det(); math.Abs(d+1) > 1e-14 {
		t.Fatalf("Det = %v, want -1", d)
	}
}

func TestLUInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randSPD(rng, 6)
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	prod, _ := Mul(a, inv)
	if !prod.Equal(Eye(6), 1e-9) {
		t.Fatal("A A⁻¹ != I")
	}
}

func TestLUSolveMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randSPD(rng, 5)
	b := randDense(rng, 5, 3)
	f, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.SolveMatrix(b)
	if err != nil {
		t.Fatal(err)
	}
	ax, _ := Mul(a, x)
	if !ax.Equal(b, 1e-9) {
		t.Fatal("A X != B")
	}
	if _, err := f.SolveMatrix(NewDense(4, 2)); err == nil {
		t.Fatal("SolveMatrix shape mismatch must error")
	}
}

func TestLUSolveShapeError(t *testing.T) {
	f, _ := NewLU(Eye(3))
	if _, err := f.Solve([]float64{1, 2}); err == nil {
		t.Fatal("Solve with wrong length must error")
	}
}

func TestCholeskyKnown(t *testing.T) {
	// [[4,2],[2,3]] = L Lᵀ with L = [[2,0],[1,sqrt(2)]].
	a, _ := NewDenseData(2, 2, []float64{4, 2, 2, 3})
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := c.L()
	if math.Abs(l.At(0, 0)-2) > 1e-15 || math.Abs(l.At(1, 0)-1) > 1e-15 ||
		math.Abs(l.At(1, 1)-math.Sqrt2) > 1e-15 || l.At(0, 1) != 0 {
		t.Fatalf("L = %v", l)
	}
}

func TestCholeskySolveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(15)
		a := randSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		x, err := c.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if r := residual(a, x, b); r > 1e-9 {
			t.Fatalf("trial %d: residual %g", trial, r)
		}
		// Cross-check against LU.
		xlu, err := SolveLU(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !VecEqual(x, xlu, 1e-8) {
			t.Fatalf("trial %d: Cholesky and LU disagree", trial)
		}
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randSPD(rng, 7)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := c.L()
	llt, _ := Mul(l, l.T())
	if !llt.Equal(a, 1e-9) {
		t.Fatal("L Lᵀ != A")
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a, _ := NewDenseData(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("want ErrNotPositiveDefinite, got %v", err)
	}
	// An infinite pivot is not positive definite either.
	a, _ = NewDenseData(2, 2, []float64{math.Inf(1), 1, 1, 1})
	if _, err := NewCholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("+Inf pivot: want ErrNotPositiveDefinite, got %v", err)
	}
	if _, err := NewCholesky(NewDense(2, 3)); !errors.Is(err, ErrSquare) {
		t.Fatalf("want ErrSquare, got %v", err)
	}
}

func TestCholeskyLogDet(t *testing.T) {
	a, _ := NewDenseData(2, 2, []float64{4, 0, 0, 9})
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.LogDet(), math.Log(36); math.Abs(got-want) > 1e-13 {
		t.Fatalf("LogDet = %v, want %v", got, want)
	}
}

func TestCholeskySolveMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randSPD(rng, 4)
	b := randDense(rng, 4, 2)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := c.SolveMatrix(b)
	if err != nil {
		t.Fatal(err)
	}
	ax, _ := Mul(a, x)
	if !ax.Equal(b, 1e-10) {
		t.Fatal("A X != B")
	}
}

func TestSolveSPDFallsBackToLU(t *testing.T) {
	// Symmetric indefinite but nonsingular: Cholesky fails, LU succeeds.
	a, _ := NewDenseData(2, 2, []float64{0, 1, 1, 0})
	x, err := SolveSPD(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqual(x, []float64{3, 2}, 1e-14) {
		t.Fatalf("SolveSPD fallback = %v", x)
	}
}

func TestCond1Identity(t *testing.T) {
	c, err := Cond1(Eye(5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-1) > 1e-12 {
		t.Fatalf("Cond1(I) = %v, want 1", c)
	}
}

func TestCond1Singular(t *testing.T) {
	a, _ := NewDenseData(2, 2, []float64{1, 1, 1, 1})
	if _, err := Cond1(a); err == nil {
		t.Fatal("Cond1 of singular matrix must error")
	}
}
