package sparse

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// randomCSR builds a random sparse matrix with roughly density nnz/cell.
func randomCSR(seed int64, rows, cols int, density float64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				_ = coo.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return coo.ToCSR()
}

func TestMulVecToWorkersMatchesSerial(t *testing.T) {
	m := randomCSR(3, 400, 300, 0.05)
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, 300)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ref := make([]float64, 400)
	if err := m.MulVecTo(ref, x); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, runtime.GOMAXPROCS(0)} {
		dst := make([]float64, 400)
		if err := m.MulVecToWorkers(dst, x, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ref {
			if dst[i] != ref[i] {
				t.Fatalf("workers=%d: row %d = %v, want %v (must be bitwise-identical)", workers, i, dst[i], ref[i])
			}
		}
	}
	if err := m.MulVecToWorkers(make([]float64, 1), x, 2); !errors.Is(err, ErrShape) {
		t.Fatalf("bad dst: err = %v, want ErrShape", err)
	}
}

// TestMulVecThresholdBitwiseIdentical covers both sides of the serial
// fallback threshold: the 400-row matrix above runs inline for every worker
// count, so this one is sized past mulVecMinParRows to keep the parallel
// row-split on the tested path.
func TestMulVecThresholdBitwiseIdentical(t *testing.T) {
	const n = mulVecMinParRows + 512
	rng := rand.New(rand.NewSource(11))
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		_ = coo.Add(i, i, 1+rng.Float64())
		for _, j := range []int{(i + 7) % n, (i + n/2) % n} {
			if j != i {
				_ = coo.Add(i, j, rng.NormFloat64())
			}
		}
	}
	m := coo.ToCSR()
	if m.Rows() < mulVecMinParRows {
		t.Fatalf("matrix below parallel threshold: %d rows", m.Rows())
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ref := make([]float64, n)
	if err := m.MulVecTo(ref, x); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, runtime.GOMAXPROCS(0)} {
		dst := make([]float64, n)
		if err := m.MulVecToWorkers(dst, x, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ref {
			if dst[i] != ref[i] {
				t.Fatalf("workers=%d: row %d = %v, want %v (must be bitwise-identical)", workers, i, dst[i], ref[i])
			}
		}
	}
}

func TestNewCSRValidation(t *testing.T) {
	// A valid 2x3 matrix: rows {0:1.0 at col 1}, {1: entries at 0 and 2}.
	indptr := []int{0, 1, 3}
	indices := []int{1, 0, 2}
	data := []float64{1, 2, 3}
	m, err := NewCSR(2, 3, indptr, indices, data)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 1 || m.At(1, 0) != 2 || m.At(1, 2) != 3 || m.At(0, 0) != 0 {
		t.Fatal("NewCSR entries misplaced")
	}

	bad := []struct {
		name    string
		rows    int
		cols    int
		indptr  []int
		indices []int
		data    []float64
	}{
		{"indptr-length", 2, 3, []int{0, 1}, []int{1}, []float64{1}},
		{"indptr-start", 2, 3, []int{1, 1, 3}, []int{1, 0, 2}, []float64{1, 2, 3}},
		{"nnz-mismatch", 2, 3, []int{0, 1, 3}, []int{1, 0}, []float64{1, 2, 3}},
		{"unsorted-row", 2, 3, []int{0, 1, 3}, []int{1, 2, 0}, []float64{1, 2, 3}},
		{"duplicate-col", 2, 3, []int{0, 2, 3}, []int{1, 1, 0}, []float64{1, 2, 3}},
		{"col-range", 2, 3, []int{0, 1, 3}, []int{1, 0, 3}, []float64{1, 2, 3}},
	}
	for _, tc := range bad {
		if _, err := NewCSR(tc.rows, tc.cols, tc.indptr, tc.indices, tc.data); err == nil {
			t.Errorf("%s: NewCSR accepted invalid input", tc.name)
		}
	}
}

func TestCGWorkersBitwiseIdentical(t *testing.T) {
	// SPD system: A = Mᵀ M + I built densely via COO.
	const n = 150
	rng := rand.New(rand.NewSource(9))
	coo := NewCOO(n, n)
	base := make([][]float64, n)
	for i := range base {
		base[i] = make([]float64, n)
		for j := range base[i] {
			base[i][j] = rng.NormFloat64() / float64(n)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += base[k][i] * base[k][j]
			}
			if i == j {
				s += 1
			}
			_ = coo.Add(i, j, s)
		}
	}
	a := coo.ToCSR()
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	ref, refRes, err := CG(a, b, CGOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4} {
		x, res, err := CG(a, b, CGOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Iterations != refRes.Iterations {
			t.Fatalf("workers=%d: %d iterations, want %d", workers, res.Iterations, refRes.Iterations)
		}
		for i := range ref {
			if x[i] != ref[i] {
				t.Fatalf("workers=%d: x[%d] = %v, want %v (must be bitwise-identical)", workers, i, x[i], ref[i])
			}
		}
	}
}
