package mat

import (
	"math"
	"math/rand"
	"testing"
)

func randDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	m.Apply(func(_, _ int, _ float64) float64 { return rng.NormFloat64() })
	return m
}

func TestAddSubScale(t *testing.T) {
	a, _ := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b, _ := NewDenseData(2, 2, []float64{5, 6, 7, 8})
	s, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := NewDenseData(2, 2, []float64{6, 8, 10, 12})
	if !s.Equal(want, 0) {
		t.Fatalf("Add = %v", s)
	}
	d, err := Sub(b, a)
	if err != nil {
		t.Fatal(err)
	}
	want4, _ := NewDenseData(2, 2, []float64{4, 4, 4, 4})
	if !d.Equal(want4, 0) {
		t.Fatalf("Sub = %v", d)
	}
	sc, err := Add(a, a)
	if err != nil {
		t.Fatal(err)
	}
	want2, _ := NewDenseData(2, 2, []float64{2, 4, 6, 8})
	if !sc.Equal(want2, 0) {
		t.Fatalf("a+a = %v, want 2a", sc)
	}
	z, err := Sub(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if z.MaxAbs() != 0 {
		t.Fatalf("a-a = %v", z)
	}
}

func TestAddShapeError(t *testing.T) {
	if _, err := Add(NewDense(2, 2), NewDense(2, 3)); err == nil {
		t.Fatal("shape mismatch must error")
	}
	if _, err := Sub(NewDense(2, 2), NewDense(3, 2)); err == nil {
		t.Fatal("shape mismatch must error")
	}
}

func TestMulKnown(t *testing.T) {
	a, _ := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b, _ := NewDenseData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	p, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := NewDenseData(2, 2, []float64{58, 64, 139, 154})
	if !p.Equal(want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", p, want)
	}
}

func TestMulShapeError(t *testing.T) {
	if _, err := Mul(NewDense(2, 3), NewDense(2, 3)); err == nil {
		t.Fatal("inner dimension mismatch must error")
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randDense(rng, 4, 4)
	p, err := Mul(a, Eye(4))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(a, 1e-14) {
		t.Fatal("A*I != A")
	}
	p2, err := Mul(Eye(4), a)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Equal(a, 1e-14) {
		t.Fatal("I*A != A")
	}
}

func TestMulAssociativityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		a := randDense(rng, 3, 4)
		b := randDense(rng, 4, 5)
		c := randDense(rng, 5, 2)
		ab, _ := Mul(a, b)
		abc1, _ := Mul(ab, c)
		bc, _ := Mul(b, c)
		abc2, _ := Mul(a, bc)
		if !abc1.Equal(abc2, 1e-10) {
			t.Fatalf("associativity violated on trial %d", trial)
		}
	}
}

func TestMulVec(t *testing.T) {
	a, _ := NewDenseData(2, 3, []float64{1, 0, -1, 2, 2, 2})
	y, err := MulVec(a, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != -2 || y[1] != 12 {
		t.Fatalf("MulVec = %v", y)
	}
	if _, err := MulVec(a, []float64{1}); err == nil {
		t.Fatal("MulVec shape mismatch must error")
	}
}

func TestMulVecTo(t *testing.T) {
	a, _ := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	dst := make([]float64, 2)
	if err := MulVecTo(dst, a, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 3 || dst[1] != 7 {
		t.Fatalf("MulVecTo = %v", dst)
	}
	if err := MulVecTo(dst[:1], a, []float64{1, 1}); err == nil {
		t.Fatal("short dst must error")
	}
}

func TestMulTVecMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randDense(rng, 4, 3)
	x := []float64{1, -2, 0.5, 3}
	got, err := MulTVec(a, x)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := MulVec(a.T(), x)
	if !VecEqual(got, want, 1e-13) {
		t.Fatalf("MulTVec = %v, want %v", got, want)
	}
	if _, err := MulTVec(a, []float64{1}); err == nil {
		t.Fatal("MulTVec shape mismatch must error")
	}
}

func TestMulDiag(t *testing.T) {
	a, _ := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	r, err := MulDiagRight(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	wantR, _ := NewDenseData(2, 2, []float64{2, 6, 6, 12})
	if !r.Equal(wantR, 0) {
		t.Fatalf("MulDiagRight = %v", r)
	}
	if _, err := MulDiagRight(a, []float64{1}); err == nil {
		t.Fatal("MulDiagRight shape mismatch must error")
	}
}

func TestMulDiagAgreesWithDenseDiag(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randDense(rng, 3, 3)
	d := []float64{1.5, -2, 0.25}
	viaDense, _ := Mul(a, Diag(d))
	viaFast, _ := MulDiagRight(a, d)
	if !viaDense.Equal(viaFast, 1e-14) {
		t.Fatal("MulDiagRight disagrees with Diag multiply")
	}
}

func TestTransposeProductProperty(t *testing.T) {
	// (AB)ᵀ = BᵀAᵀ on random matrices.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		a := randDense(rng, 3, 4)
		b := randDense(rng, 4, 2)
		ab, _ := Mul(a, b)
		lhs := ab.T()
		rhs, _ := Mul(b.T(), a.T())
		if !lhs.Equal(rhs, 1e-12) {
			t.Fatalf("(AB)ᵀ != BᵀAᵀ on trial %d", trial)
		}
	}
}

func TestNormSubmultiplicative(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		a := randDense(rng, 4, 4)
		b := randDense(rng, 4, 4)
		ab, _ := Mul(a, b)
		if ab.NormFrob() > a.NormFrob()*b.NormFrob()*(1+1e-12) {
			t.Fatalf("Frobenius norm not submultiplicative on trial %d", trial)
		}
	}
}

func TestScaleNormHomogeneity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randDense(rng, 3, 5)
	s := a.Clone()
	s.Apply(func(_, _ int, v float64) float64 { return -2.5 * v })
	if math.Abs(s.NormFrob()-2.5*a.NormFrob()) > 1e-12 {
		t.Fatal("NormFrob not homogeneous under scaling")
	}
}
