package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

func TestLanczosDiagonalExact(t *testing.T) {
	coo := NewCOO(4, 4)
	for i, v := range []float64{1, 3, 7, 2} {
		_ = coo.Add(i, i, v)
	}
	res, err := Lanczos(coo.ToCSR(), 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3, 7}
	if len(res.RitzValues) != 4 {
		t.Fatalf("ritz count %d", len(res.RitzValues))
	}
	for i, w := range want {
		if math.Abs(res.RitzValues[i]-w) > 1e-8 {
			t.Fatalf("ritz[%d] = %v, want %v", i, res.RitzValues[i], w)
		}
	}
}

func TestLanczosMatchesDenseEigen(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	n := 20
	a := randSPDCSR(rng, n)
	res, err := Lanczos(a, n, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := res.RitzValues[0], res.RitzValues[len(res.RitzValues)-1]
	eig, err := mat.NewEigenSym(a.ToDense(), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo-eig.Values[0]) > 1e-6*math.Max(1, math.Abs(eig.Values[0])) {
		t.Fatalf("smallest: lanczos %v vs dense %v", lo, eig.Values[0])
	}
	if math.Abs(hi-eig.Values[n-1]) > 1e-6*math.Max(1, eig.Values[n-1]) {
		t.Fatalf("largest: lanczos %v vs dense %v", hi, eig.Values[n-1])
	}
}

func TestLanczosEarlyTermination(t *testing.T) {
	// Identity: the first step already spans an invariant subspace.
	coo := NewCOO(5, 5)
	for i := 0; i < 5; i++ {
		_ = coo.Add(i, i, 2)
	}
	res, err := Lanczos(coo.ToCSR(), 5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 1 {
		t.Fatalf("steps = %d, want 1 for scaled identity", res.Steps)
	}
	if math.Abs(res.RitzValues[0]-2) > 1e-12 {
		t.Fatalf("ritz = %v", res.RitzValues)
	}
}

func TestLanczosDeflation(t *testing.T) {
	// Diagonal matrix diag(5,1,1); deflating e1 must remove eigenvalue 5.
	coo := NewCOO(3, 3)
	_ = coo.Add(0, 0, 5)
	_ = coo.Add(1, 1, 1)
	_ = coo.Add(2, 2, 1)
	e1 := []float64{1, 0, 0}
	res, err := Lanczos(coo.ToCSR(), 3, nil, [][]float64{e1})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.RitzValues {
		if math.Abs(v-5) < 1e-6 {
			t.Fatalf("deflated eigenvalue reappeared: %v", res.RitzValues)
		}
	}
}

func TestLanczosErrors(t *testing.T) {
	rect := NewCOO(2, 3).ToCSR()
	if _, err := Lanczos(rect, 2, nil, nil); !errors.Is(err, ErrShape) {
		t.Fatal("rectangular must error")
	}
	sq := NewCOO(3, 3).ToCSR()
	if _, err := Lanczos(sq, 0, nil, nil); !errors.Is(err, ErrShape) {
		t.Fatal("k=0 must error")
	}
	if _, err := Lanczos(sq, 2, []float64{1}, nil); !errors.Is(err, ErrShape) {
		t.Fatal("bad v0 must error")
	}
	if _, err := Lanczos(sq, 2, nil, [][]float64{{1}}); !errors.Is(err, ErrShape) {
		t.Fatal("bad deflation vector must error")
	}
}

func TestLanczosKClamped(t *testing.T) {
	coo := NewCOO(2, 2)
	_ = coo.Add(0, 0, 1)
	_ = coo.Add(1, 1, 2)
	res, err := Lanczos(coo.ToCSR(), 100, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps > 2 {
		t.Fatalf("steps = %d, want <= n", res.Steps)
	}
}

func TestLanczosRadius(t *testing.T) {
	coo := NewCOO(2, 2)
	_ = coo.Add(0, 0, 3)
	_ = coo.Add(1, 1, 1)
	a := coo.ToCSR()
	r, err := LanczosRadius(a, []float64{1, 1}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-3) > 1e-6 {
		t.Fatalf("spectral radius = %v, want 3", r)
	}
	rect := NewCOO(2, 3).ToCSR()
	if _, err := LanczosRadius(rect, []float64{1, 1}, 0, 1); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
	if _, err := LanczosRadius(a, []float64{1}, 0, 1); !errors.Is(err, ErrShape) {
		t.Fatalf("short scale: want ErrShape, got %v", err)
	}
}

func TestSpectralRadiusZeroMatrix(t *testing.T) {
	a := NewCOO(3, 3).ToCSR()
	r, err := LanczosRadius(a, []float64{1, 1, 1}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Fatalf("zero matrix radius = %v", r)
	}
}
