package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestEigenSymDiagonal(t *testing.T) {
	a := Diag([]float64{3, 1, 2})
	e, err := NewEigenSym(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqual(e.Values, []float64{1, 2, 3}, 1e-14) {
		t.Fatalf("Values = %v", e.Values)
	}
}

func TestEigenSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a, _ := NewDenseData(2, 2, []float64{2, 1, 1, 2})
	e, err := NewEigenSym(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqual(e.Values, []float64{1, 3}, 1e-12) {
		t.Fatalf("Values = %v", e.Values)
	}
}

func TestEigenSymReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 5; trial++ {
		n := 2 + rng.Intn(8)
		a := randSPD(rng, n)
		e, err := NewEigenSym(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		// V diag(λ) Vᵀ must reconstruct A.
		vd, _ := MulDiagRight(e.Vectors, e.Values)
		rec, _ := Mul(vd, e.Vectors.T())
		if !rec.Equal(a, 1e-8*math.Max(1, a.MaxAbs())) {
			t.Fatalf("trial %d: reconstruction failed", trial)
		}
		// Eigenvectors must be orthonormal.
		vtv, _ := Mul(e.Vectors.T(), e.Vectors)
		if !vtv.Equal(Eye(n), 1e-10) {
			t.Fatalf("trial %d: eigenvectors not orthonormal", trial)
		}
		// Eigenvalues ascending.
		for i := 1; i < n; i++ {
			if e.Values[i] < e.Values[i-1] {
				t.Fatalf("trial %d: eigenvalues not sorted", trial)
			}
		}
	}
}

func TestEigenSymTraceAndDetInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randSPD(rng, 6)
	e, err := NewEigenSym(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := a.Trace()
	if math.Abs(SumVec(e.Values)-tr) > 1e-9*math.Abs(tr) {
		t.Fatal("sum of eigenvalues != trace")
	}
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// log det = Σ log λ_i; an absolute gap of 1e-7 here is a relative gap
	// of about 1e-7 between det and the eigenvalue product.
	var logProd float64
	for _, v := range e.Values {
		logProd += math.Log(v)
	}
	if logDet := ch.LogDet(); math.Abs(logProd-logDet) > 1e-7 {
		t.Fatalf("log product of eigenvalues %v != log det %v", logProd, logDet)
	}
}

func TestEigenSymRejectsAsymmetric(t *testing.T) {
	a, _ := NewDenseData(2, 2, []float64{1, 5, 0, 1})
	if _, err := NewEigenSym(a, 0); err == nil {
		t.Fatal("asymmetric input must error")
	}
	if _, err := NewEigenSym(NewDense(2, 3), 0); !errors.Is(err, ErrSquare) {
		t.Fatalf("want ErrSquare, got %v", err)
	}
}
