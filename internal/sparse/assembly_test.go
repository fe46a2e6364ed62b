package sparse

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refToCSR is the sort-based compilation ToCSR replaced, kept as its
// differential oracle: an unstable sort of the entry order by (row, column),
// then a merge summing each run of equal coordinates in sorted order. With
// at most two entries per coordinate the sum is order-free, so ToCSR must
// match it bitwise.
func refToCSR(a *COO) *CSR {
	nnz := len(a.v)
	order := make([]int, nnz)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		ix, iy := order[x], order[y]
		if a.ri[ix] != a.ri[iy] {
			return a.ri[ix] < a.ri[iy]
		}
		return a.ci[ix] < a.ci[iy]
	})
	indptr := make([]int, a.rows+1)
	indices := make([]int, 0, nnz)
	data := make([]float64, 0, nnz)
	prevRow, prevCol := -1, -1
	for _, k := range order {
		r, c, v := a.ri[k], a.ci[k], a.v[k]
		if r == prevRow && c == prevCol {
			data[len(data)-1] += v
			continue
		}
		indices = append(indices, c)
		data = append(data, v)
		indptr[r+1]++
		prevRow, prevCol = r, c
	}
	for i := 0; i < a.rows; i++ {
		indptr[i+1] += indptr[i]
	}
	return &CSR{rows: a.rows, cols: a.cols, indptr: indptr, indices: indices, data: data}
}

// refTranspose is the COO round trip Transpose replaced.
func refTranspose(m *CSR) *CSR {
	coo := NewCOO(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for k := m.indptr[i]; k < m.indptr[i+1]; k++ {
			_ = coo.Add(m.indices[k], i, m.data[k])
		}
	}
	return refToCSR(coo)
}

// refPermute is the sort.Slice row sort Permute replaced.
func refPermute(m *CSR, perm []int) *CSR {
	n := m.rows
	inv := InvertPerm(perm)
	indptr := make([]int, n+1)
	indices := make([]int, m.NNZ())
	data := make([]float64, m.NNZ())
	type ent struct {
		col, pos int
	}
	var row []ent
	at := 0
	for i := 0; i < n; i++ {
		old := perm[i]
		row = row[:0]
		for k := m.indptr[old]; k < m.indptr[old+1]; k++ {
			row = append(row, ent{col: inv[m.indices[k]], pos: k})
		}
		sort.Slice(row, func(x, y int) bool { return row[x].col < row[y].col })
		for _, e := range row {
			indices[at] = e.col
			data[at] = m.data[e.pos]
			at++
		}
		indptr[i+1] = at
	}
	return &CSR{rows: n, cols: n, indptr: indptr, indices: indices, data: data}
}

// requireSameCSR fails unless got and want have the same shape, indptr and
// indices, and bitwise-equal data.
func requireSameCSR(t *testing.T, label string, got, want *CSR) {
	t.Helper()
	if got.rows != want.rows || got.cols != want.cols {
		t.Fatalf("%s: dims %dx%d, want %dx%d", label, got.rows, got.cols, want.rows, want.cols)
	}
	if !slices.Equal(got.indptr, want.indptr) || !slices.Equal(got.indices, want.indices) {
		t.Fatalf("%s: structure differs:\nindptr %v\nwant   %v\nindices %v\nwant    %v",
			label, got.indptr, want.indptr, got.indices, want.indices)
	}
	for k := range want.data {
		if math.Float64bits(got.data[k]) != math.Float64bits(want.data[k]) {
			t.Fatalf("%s: data[%d] = %v, want %v", label, k, got.data[k], want.data[k])
		}
	}
}

// randomStream returns an r×c COO filled in random coordinate order with at
// most two Adds per coordinate; about one Add in five is a zero (which Add
// drops) and row r/2 stays empty.
func randomStream(rng *rand.Rand, r, c int) *COO {
	coo := NewCOO(r, c)
	hits := make(map[[2]int]int)
	for k := 0; k < r*c; k++ {
		i, j := rng.Intn(r), rng.Intn(c)
		if i == r/2 || hits[[2]int{i, j}] == 2 {
			continue
		}
		hits[[2]int{i, j}]++
		v := rng.NormFloat64()
		if rng.Intn(5) == 0 {
			v = 0
		}
		_ = coo.Add(i, j, v)
	}
	return coo
}

func TestToCSRMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	for trial := 0; trial < 200; trial++ {
		r, c := 1+rng.Intn(20), 1+rng.Intn(20)
		coo := randomStream(rng, r, c)
		requireSameCSR(t, "ToCSR", coo.ToCSR(), refToCSR(coo))
	}
}

// withStoredZeros returns a copy of m whose every third stored value is
// replaced by 0 or -0, which a CSR built through NewCSR may hold.
func withStoredZeros(m *CSR) *CSR {
	data := slices.Clone(m.data)
	for k := 0; k < len(data); k += 3 {
		data[k] = 0
		if k%2 == 1 {
			data[k] = math.Copysign(0, -1)
		}
	}
	return &CSR{rows: m.rows, cols: m.cols, indptr: m.indptr, indices: m.indices, data: data}
}

func TestTransposeMatchesCOOReference(t *testing.T) {
	rng := rand.New(rand.NewSource(152))
	for trial := 0; trial < 100; trial++ {
		m := randomStream(rng, 1+rng.Intn(20), 1+rng.Intn(20)).ToCSR()
		requireSameCSR(t, "Transpose", m.Transpose(), refTranspose(m))
		z := withStoredZeros(m)
		requireSameCSR(t, "Transpose with stored zeros", z.Transpose(), refTranspose(z))
	}
}

func TestIsSymmetricAnswersTable(t *testing.T) {
	mustCSR := func(rows, cols int, indptr, indices []int, data []float64) *CSR {
		m, err := NewCSR(rows, cols, indptr, indices, data)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	tests := []struct {
		name string
		m    *CSR
		tol  float64
		want bool
	}{
		{"symmetric", mustCSR(2, 2, []int{0, 2, 3}, []int{0, 1, 0}, []float64{1, 2, 2}), 0, true},
		{"within tol", mustCSR(2, 2, []int{0, 1, 2}, []int{1, 0}, []float64{1, 1 + 1e-13}), 1e-12, true},
		{"outside tol", mustCSR(2, 2, []int{0, 1, 2}, []int{1, 0}, []float64{1, 1 + 1e-13}), 0, false},
		// Transpose drops stored zeros, so a stored zero pair reads as a
		// structure mismatch.
		{"stored zero pair", mustCSR(2, 2, []int{0, 2, 4}, []int{0, 1, 0, 1}, []float64{1, 0, 0, 1}), 0, false},
		{"stored -0 pair", mustCSR(2, 2, []int{0, 1, 2}, []int{1, 0}, []float64{math.Copysign(0, -1), 0}), 0, false},
	}
	for _, tt := range tests {
		if got := tt.m.IsSymmetric(tt.tol); got != tt.want {
			t.Errorf("%s: IsSymmetric(%g) = %v, want %v", tt.name, tt.tol, got, tt.want)
		}
	}
}

// TestPermuteMatchesSortReference uses rows of about 20 entries, past the
// 12 at which sort.Slice stops using insertion sort and partitions.
func TestPermuteMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(153))
	for trial := 0; trial < 20; trial++ {
		n := 30 + rng.Intn(20)
		coo := NewCOO(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				if rng.Intn(2) == 0 {
					_ = coo.AddSym(i, j, rng.NormFloat64())
				}
			}
		}
		m := coo.ToCSR()
		perm := rng.Perm(n)
		got, err := m.Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		requireSameCSR(t, "Permute", got, refPermute(m, perm))
	}
}

// TestCOOSumsInInsertionOrder pins the summation contract where order
// matters: 1e16 + 1 rounds to 1e16, so only the insertion order
// 1e16, −1e16, 1 sums to 1. Row 1 arrives with its columns out of order.
func TestCOOSumsInInsertionOrder(t *testing.T) {
	coo := NewCOO(2, 3)
	for _, e := range []struct {
		i, j int
		v    float64
	}{{0, 1, 1e16}, {0, 1, -1e16}, {0, 1, 1}, {1, 2, 1e16}, {1, 0, 5}, {1, 2, -1e16}, {1, 2, 1}} {
		if err := coo.Add(e.i, e.j, e.v); err != nil {
			t.Fatal(err)
		}
	}
	m := coo.ToCSR()
	if m.At(0, 1) != 1 || m.At(1, 2) != 1 || m.At(1, 0) != 5 || m.NNZ() != 3 {
		t.Fatalf("got %v", m.ToDense())
	}
}

// TestAddSymRepeatsSymmetric: a coordinate and its mirror receive the same
// values in the same order, so repeated AddSym calls must sum to bitwise-
// equal mirrored entries.
func TestAddSymRepeatsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(154))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(4)
		coo := NewCOO(n, n)
		for k := 0; k < 30; k++ {
			_ = coo.AddSym(rng.Intn(n), rng.Intn(n), float64(rng.Intn(30))/10)
		}
		if m := coo.ToCSR(); !m.IsSymmetric(0) {
			t.Fatalf("trial %d: AddSym stream compiled to an asymmetric matrix:\n%v", trial, m.ToDense())
		}
	}
}
