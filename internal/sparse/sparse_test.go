package sparse

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func buildCSR(t *testing.T, r, c int, entries [][3]float64) *CSR {
	t.Helper()
	coo := NewCOO(r, c)
	for _, e := range entries {
		if err := coo.Add(int(e[0]), int(e[1]), e[2]); err != nil {
			t.Fatal(err)
		}
	}
	return coo.ToCSR()
}

func TestCOOBasics(t *testing.T) {
	coo := NewCOO(2, 3)
	if coo.Rows() != 2 || coo.Cols() != 3 {
		t.Fatal("dims wrong")
	}
	if err := coo.Add(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := coo.Add(0, 0, 0); err != nil { // zero is skipped
		t.Fatal(err)
	}
	if coo.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 (zeros skipped)", coo.NNZ())
	}
	if err := coo.Add(2, 0, 1); !errors.Is(err, ErrIndex) {
		t.Fatalf("want ErrIndex, got %v", err)
	}
}

func TestCOODuplicatesSummed(t *testing.T) {
	coo := NewCOO(2, 2)
	_ = coo.Add(1, 1, 2)
	_ = coo.Add(1, 1, 3)
	m := coo.ToCSR()
	if got := m.At(1, 1); got != 5 {
		t.Fatalf("At(1,1) = %v, want 5", got)
	}
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 after merge", m.NNZ())
	}
}

func TestAddSym(t *testing.T) {
	coo := NewCOO(3, 3)
	if err := coo.AddSym(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := coo.AddSym(2, 2, 7); err != nil {
		t.Fatal(err)
	}
	m := coo.ToCSR()
	if m.At(0, 1) != 2 || m.At(1, 0) != 2 || m.At(2, 2) != 7 {
		t.Fatal("AddSym entries wrong")
	}
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
	if err := coo.AddSym(5, 0, 1); !errors.Is(err, ErrIndex) {
		t.Fatalf("want ErrIndex, got %v", err)
	}
}

func TestCSRAtAndStructure(t *testing.T) {
	m := buildCSR(t, 3, 3, [][3]float64{{0, 2, 3}, {1, 0, 4}, {2, 1, 5}})
	if m.At(0, 2) != 3 || m.At(1, 0) != 4 || m.At(2, 1) != 5 {
		t.Fatal("stored entries wrong")
	}
	if m.At(0, 0) != 0 {
		t.Fatal("missing entry should read as zero")
	}
	cols, vals := m.RowNNZ(1)
	if len(cols) != 1 || cols[0] != 0 || vals[0] != 4 {
		t.Fatalf("RowNNZ(1) = %v %v", cols, vals)
	}
	if err := m.SetAt(2, 1, 7); err != nil || m.At(2, 1) != 7 {
		t.Fatalf("SetAt of a stored entry: %v, At = %v", err, m.At(2, 1))
	}
	for _, ij := range [][2]int{{0, 0}, {3, 0}, {0, -1}} {
		if err := m.SetAt(ij[0], ij[1], 1); !errors.Is(err, ErrIndex) {
			t.Fatalf("SetAt%v: err %v, want ErrIndex", ij, err)
		}
	}
	if m.NNZ() != 3 || m.At(0, 0) != 0 {
		t.Fatal("a refused SetAt changed the matrix")
	}
}

func TestCSRAtPanics(t *testing.T) {
	m := buildCSR(t, 2, 2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range must panic")
		}
	}()
	m.At(2, 0)
}

func TestMulVec(t *testing.T) {
	m := buildCSR(t, 2, 3, [][3]float64{{0, 0, 1}, {0, 2, 2}, {1, 1, 3}})
	y, err := m.MulVec([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 7 || y[1] != 6 {
		t.Fatalf("MulVec = %v", y)
	}
	if _, err := m.MulVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		r, c := 1+rng.Intn(10), 1+rng.Intn(10)
		d := mat.NewDense(r, c)
		d.Apply(func(_, _ int, _ float64) float64 {
			if rng.Float64() < 0.5 {
				return 0
			}
			return rng.NormFloat64()
		})
		s := FromDense(d, 0)
		x := make([]float64, c)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want, _ := mat.MulVec(d, x)
		got, err := s.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		if !mat.VecEqual(got, want, 1e-12) {
			t.Fatalf("trial %d: sparse %v vs dense %v", trial, got, want)
		}
	}
}

func TestDiagRowSums(t *testing.T) {
	m := buildCSR(t, 2, 2, [][3]float64{{0, 0, 1}, {0, 1, 2}, {1, 1, 4}})
	d := m.Diag()
	if d[0] != 1 || d[1] != 4 {
		t.Fatalf("Diag = %v", d)
	}
	rs := m.RowSums()
	if rs[0] != 3 || rs[1] != 4 {
		t.Fatalf("RowSums = %v", rs)
	}
}

func TestToDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	d := mat.NewDense(5, 4)
	d.Apply(func(_, _ int, _ float64) float64 {
		if rng.Float64() < 0.6 {
			return 0
		}
		return rng.NormFloat64()
	})
	back := FromDense(d, 0).ToDense()
	if !back.Equal(d, 0) {
		t.Fatal("ToDense(FromDense(d)) != d")
	}
}

func TestFromDenseDropTol(t *testing.T) {
	d, _ := mat.NewDenseData(1, 3, []float64{1e-14, -1e-14, 1})
	s := FromDense(d, 1e-12)
	if s.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 after drop", s.NNZ())
	}
}

func TestTranspose(t *testing.T) {
	m := buildCSR(t, 2, 3, [][3]float64{{0, 1, 5}, {1, 2, 7}})
	tr := m.Transpose()
	if r, c := tr.Dims(); r != 3 || c != 2 {
		t.Fatalf("transpose dims (%d,%d)", r, c)
	}
	if tr.At(1, 0) != 5 || tr.At(2, 1) != 7 {
		t.Fatal("transpose entries wrong")
	}
}

func TestIsSymmetric(t *testing.T) {
	sym := buildCSR(t, 2, 2, [][3]float64{{0, 1, 2}, {1, 0, 2}, {0, 0, 1}})
	if !sym.IsSymmetric(0) {
		t.Fatal("symmetric matrix misreported")
	}
	asym := buildCSR(t, 2, 2, [][3]float64{{0, 1, 2}})
	if asym.IsSymmetric(0) {
		t.Fatal("asymmetric matrix misreported")
	}
	rect := buildCSR(t, 2, 3, nil)
	if rect.IsSymmetric(0) {
		t.Fatal("rectangular cannot be symmetric")
	}
}

// Property: for random sparse symmetric matrices, (Aᵀ)ᵀ = A and
// CSR At agrees with the dense expansion everywhere.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		coo := NewCOO(n, n)
		for k := 0; k < n*2; k++ {
			_ = coo.Add(rng.Intn(n), rng.Intn(n), rng.NormFloat64())
		}
		m := coo.ToCSR()
		tt := m.Transpose().Transpose()
		return tt.ToDense().Equal(m.ToDense(), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
