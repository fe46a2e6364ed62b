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

func TestSolveSPDRejectsIndefinite(t *testing.T) {
	// Symmetric indefinite but nonsingular: SolveSPD factors with Cholesky
	// only, so it fails typed instead of solving.
	a, _ := NewDenseData(2, 2, []float64{0, 1, 1, 0})
	if _, err := SolveSPD(a, []float64{2, 3}); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("want ErrNotPositiveDefinite, got %v", err)
	}
	a, _ = NewDenseData(2, 2, []float64{4, 2, 2, 3})
	x, err := SolveSPD(a, []float64{6, 5})
	if err != nil {
		t.Fatal(err)
	}
	if r := residual(a, x, []float64{6, 5}); r > 1e-14 {
		t.Fatalf("SolveSPD residual %g", r)
	}
}
