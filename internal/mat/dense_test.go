package mat

import (
	"math"
	"strings"
	"testing"
)

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims() = (%d,%d), want (3,4)", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewDenseDataShapeError(t *testing.T) {
	if _, err := NewDenseData(2, 2, []float64{1, 2, 3}); err == nil {
		t.Fatal("want error for wrong data length")
	}
}

func TestNewDenseDataCopies(t *testing.T) {
	src := []float64{1, 2, 3, 4}
	m, err := NewDenseData(2, 2, src)
	if err != nil {
		t.Fatal(err)
	}
	src[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("NewDenseData must copy its input")
	}
}

func TestSetAt(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range must panic")
		}
	}()
	NewDense(2, 2).At(2, 0)
}

func TestEye(t *testing.T) {
	id := Eye(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Eye(3)[%d,%d] = %v, want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestDiag(t *testing.T) {
	d := Diag([]float64{1, 2, 3})
	if d.At(1, 1) != 2 || d.At(0, 1) != 0 {
		t.Fatalf("unexpected Diag content: %v", d)
	}
}

func TestRowColCopies(t *testing.T) {
	m, _ := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("Row must return a copy")
	}
	c := m.Col(1)
	if c[0] != 2 || c[1] != 4 {
		t.Fatalf("Col(1) = %v, want [2 4]", c)
	}
	c[0] = 99
	if m.At(0, 1) != 2 {
		t.Fatal("Col must return a copy")
	}
}

func TestRawRowAliases(t *testing.T) {
	m := NewDense(2, 2)
	m.RawRow(0)[1] = 42
	if m.At(0, 1) != 42 {
		t.Fatal("RawRow must alias storage")
	}
}

func TestCloneIndependent(t *testing.T) {
	m, _ := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	n := m.Clone()
	n.Set(0, 0, 100)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	if r, c := tr.Dims(); r != 3 || c != 2 {
		t.Fatalf("T dims = (%d,%d)", r, c)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestFillApply(t *testing.T) {
	m := NewDense(2, 2)
	m.Apply(func(_, _ int, _ float64) float64 { return 3 })
	m.Apply(func(i, j int, v float64) float64 { return v + float64(i+j) })
	if m.At(1, 1) != 5 || m.At(0, 0) != 3 {
		t.Fatalf("Apply result wrong: %v", m)
	}
}

func TestDiagVecTrace(t *testing.T) {
	m, _ := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	if d := []float64{m.At(0, 0), m.At(1, 1)}; d[0] != 1 || d[1] != 4 {
		t.Fatalf("diagonal = %v", d)
	}
	tr, err := m.Trace()
	if err != nil || tr != 5 {
		t.Fatalf("Trace = %v, %v", tr, err)
	}
	if _, err := NewDense(2, 3).Trace(); err == nil {
		t.Fatal("Trace of non-square must error")
	}
}

func TestNorms(t *testing.T) {
	m, _ := NewDenseData(2, 2, []float64{1, -2, -3, 4})
	if got := m.NormInf(); got != 7 { // row 1: 3+4
		t.Fatalf("NormInf = %v, want 7", got)
	}
	if got := m.NormFrob(); math.Abs(got-math.Sqrt(30)) > 1e-15 {
		t.Fatalf("NormFrob = %v, want sqrt(30)", got)
	}
	if got := m.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %v, want 4", got)
	}
}

func TestIsSymmetric(t *testing.T) {
	s, _ := NewDenseData(2, 2, []float64{1, 2, 2, 1})
	if !s.IsSymmetric(0) {
		t.Fatal("symmetric matrix reported asymmetric")
	}
	a, _ := NewDenseData(2, 2, []float64{1, 2, 2.5, 1})
	if a.IsSymmetric(0.1) {
		t.Fatal("asymmetric matrix reported symmetric")
	}
	if NewDense(2, 3).IsSymmetric(0) {
		t.Fatal("non-square cannot be symmetric")
	}
}

func TestEqual(t *testing.T) {
	a, _ := NewDenseData(1, 2, []float64{1, 2})
	b, _ := NewDenseData(1, 2, []float64{1, 2.0000001})
	if !a.Equal(b, 1e-5) {
		t.Fatal("Equal within tolerance failed")
	}
	if a.Equal(b, 1e-9) {
		t.Fatal("Equal beyond tolerance must fail")
	}
	if a.Equal(NewDense(2, 1), 1) {
		t.Fatal("Equal with different shapes must fail")
	}
}

func TestStringTruncates(t *testing.T) {
	m := NewDense(10, 10)
	s := m.String()
	if !strings.Contains(s, "Dense(10x10)") || !strings.Contains(s, "...") {
		t.Fatalf("String() = %q", s)
	}
}
