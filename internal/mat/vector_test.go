package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot length mismatch must panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %v, want 0", got)
	}
}

func TestNorm2OverflowSafe(t *testing.T) {
	big := 1e300
	got := Norm2([]float64{big, big})
	want := big * math.Sqrt(2)
	if math.IsInf(got, 1) || math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("Norm2 overflow-unsafe: got %v, want %v", got, want)
	}
}

func TestNorm1NormInf(t *testing.T) {
	x := []float64{-1, 2, -3}
	if got := Norm1(x); got != 6 {
		t.Fatalf("Norm1 = %v", got)
	}
	if got := NormInf(x); got != 3 {
		t.Fatalf("NormInf = %v", got)
	}
}

func TestAXPYScale(t *testing.T) {
	y := []float64{1, 1}
	AXPY(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("AXPY = %v", y)
	}
	ScaleVec(0.5, y)
	if y[0] != 3.5 || y[1] != 4.5 {
		t.Fatalf("ScaleVec = %v", y)
	}
}

func TestAddSubVec(t *testing.T) {
	x, y := []float64{1, 2}, []float64{3, 5}
	s := CloneVec(x)
	AXPY(1, y, s)
	if s[0] != 4 || s[1] != 7 {
		t.Fatalf("x+y = %v", s)
	}
	if d := SubVec(y, x); d[0] != 2 || d[1] != 3 {
		t.Fatalf("SubVec = %v", d)
	}
}

func TestCloneVecIndependent(t *testing.T) {
	x := []float64{1, 2}
	c := CloneVec(x)
	c[0] = 9
	if x[0] != 1 {
		t.Fatal("CloneVec must copy")
	}
}

func TestOnesConstant(t *testing.T) {
	c := Constant(2, 7)
	if c[0] != 7 || c[1] != 7 {
		t.Fatalf("Constant = %v", c)
	}
}

func TestSumMean(t *testing.T) {
	x := []float64{1, 2, 3}
	if SumVec(x) != 6 {
		t.Fatal("SumVec wrong")
	}
	if MeanVec(x) != 2 {
		t.Fatal("MeanVec wrong")
	}
	if !math.IsNaN(MeanVec(nil)) {
		t.Fatal("MeanVec(nil) must be NaN")
	}
}

func TestMinMaxVec(t *testing.T) {
	x := []float64{3, -1, 2}
	if mn, i := MinVec(x); mn != -1 || i != 1 {
		t.Fatalf("MinVec = %v,%d", mn, i)
	}
	if mx, i := MaxVec(x); mx != 3 || i != 0 {
		t.Fatalf("MaxVec = %v,%d", mx, i)
	}
	if _, i := MinVec(nil); i != -1 {
		t.Fatal("MinVec(nil) index must be -1")
	}
}

func TestDist(t *testing.T) {
	x, y := []float64{0, 0}, []float64{3, 4}
	if Dist2(x, y) != 25 {
		t.Fatal("Dist2 wrong")
	}
	if Dist(x, y) != 5 {
		t.Fatal("Dist wrong")
	}
}

func TestVecEqual(t *testing.T) {
	if !VecEqual([]float64{1, 2}, []float64{1, 2 + 1e-12}, 1e-9) {
		t.Fatal("VecEqual within tol failed")
	}
	if VecEqual([]float64{1}, []float64{1, 2}, 1) {
		t.Fatal("VecEqual with length mismatch must fail")
	}
}

// Property: the Cauchy–Schwarz inequality |<x,y>| <= ||x|| ||y|| holds.
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		half := len(raw) / 2
		x, y := raw[:half], raw[half:2*half]
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // skip pathological inputs
			}
		}
		lhs := math.Abs(Dot(x, y))
		rhs := Norm2(x) * Norm2(y)
		return lhs <= rhs*(1+1e-10)+1e-300
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the triangle inequality ||x+y|| <= ||x|| + ||y|| holds.
func TestTriangleInequalityProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		half := len(raw) / 2
		x, y := raw[:half], raw[half:2*half]
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		s := CloneVec(x)
		AXPY(1, y, s)
		return Norm2(s) <= Norm2(x)+Norm2(y)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
