package spatial

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/kernel"
	"repro/internal/randx"
)

// randomPoints draws n points in dimension d, snapped to a coarse lattice
// with probability ~1/2 so duplicate coordinates and exact distance ties
// occur routinely.
func randomPoints(seed int64, n, d int) [][]float64 {
	rng := randx.New(seed)
	x := make([][]float64, n)
	for i := range x {
		xi := make([]float64, d)
		for j := range xi {
			v := rng.Float64()*10 - 5
			if rng.Float64() < 0.5 {
				v = math.Round(v) // lattice point: exact ties across points
			}
			xi[j] = v
		}
		x[i] = xi
	}
	return x
}

// bruteRadius is the reference radius query: every index with d² <= r2,
// excluding self, ascending.
func bruteRadius(x [][]float64, q []float64, self int, r2 float64) []int32 {
	var out []int32
	for i, xi := range x {
		if i == self {
			continue
		}
		if kernel.Dist2(q, xi) <= r2 {
			out = append(out, int32(i))
		}
	}
	return out
}

// bruteKNN is the reference k-NN query under the (d², index) total order.
func bruteKNN(x [][]float64, q []float64, self int, k int, maxD2 float64) []int32 {
	type cand struct {
		d2  float64
		idx int32
	}
	var cs []cand
	for i, xi := range x {
		if i == self {
			continue
		}
		d2 := kernel.Dist2(q, xi)
		if maxD2 >= 0 && d2 > maxD2 {
			continue
		}
		cs = append(cs, cand{d2, int32(i)})
	}
	sort.Slice(cs, func(a, b int) bool {
		if cs[a].d2 != cs[b].d2 {
			return cs[a].d2 < cs[b].d2
		}
		return cs[a].idx < cs[b].idx
	})
	if k > len(cs) {
		k = len(cs)
	}
	out := make([]int32, k)
	for i := range out {
		out[i] = cs[i].idx
	}
	slices.Sort(out)
	return out
}

func sameInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCheckPoints(t *testing.T) {
	if _, err := checkPoints(nil); err != ErrEmpty {
		t.Fatalf("empty: got %v", err)
	}
	if _, err := checkPoints([][]float64{{}}); err != ErrParam {
		t.Fatalf("zero-dim: got %v", err)
	}
	if _, err := checkPoints([][]float64{{1, 2}, {3}}); err != ErrParam {
		t.Fatalf("ragged: got %v", err)
	}
	if d, err := checkPoints([][]float64{{1, 2}, {3, 4}}); err != nil || d != 2 {
		t.Fatalf("valid: got dim=%d err=%v", d, err)
	}
}

// TestKDTreeKNNMatchesBrute compares a reused KNNQuery to brute-force
// (d², index) selection across sizes, dimensions, k, and ε pre-filters,
// through Do and through DoDist2.
func TestKDTreeKNNMatchesBrute(t *testing.T) {
	cases := []struct {
		n, d, k int
		maxD2   float64
	}{
		{1, 2, 3, -1}, {30, 1, 5, -1}, {200, 2, 8, -1}, {200, 2, 8, 2.0},
		{300, 3, 1, -1}, {150, 8, 10, -1}, {100, 2, 150, -1}, {64, 4, 6, 0.5},
		{400, 5, 10, -1}, {200, 17, 7, -1}, {120, 33, 5, 60},
		{300, 2, 64, -1}, {300, 2, 65, -1},
	}
	for _, tc := range cases {
		x := randomPoints(int64(tc.n*10+tc.d+tc.k), tc.n, tc.d)
		tr, err := NewKDTree(x, 1)
		if err != nil {
			t.Fatal(err)
		}
		if tr.N() != tc.n {
			t.Fatalf("N=%d want %d", tr.N(), tc.n)
		}
		kq := tr.NewKNNQuery(tc.k)
		var buf, sel []int32
		var d2 []float64
		for i := range x {
			buf = kq.Do(x[i], int32(i), tc.maxD2, buf[:0])
			want := bruteKNN(x, x[i], i, tc.k, tc.maxD2)
			if !sameInt32(buf, want) {
				t.Fatalf("n=%d d=%d k=%d maxD2=%v query %d: got %v want %v",
					tc.n, tc.d, tc.k, tc.maxD2, i, buf, want)
			}
			sel, d2 = kq.DoDist2(x[i], int32(i), tc.maxD2, sel[:0], d2[:0])
			if !sameInt32(sel, want) {
				t.Fatalf("n=%d d=%d k=%d query %d: DoDist2 got %v want %v", tc.n, tc.d, tc.k, i, sel, want)
			}
			for p, j := range sel {
				if math.Float64bits(d2[p]) != math.Float64bits(kernel.Dist2(x[i], x[j])) {
					t.Fatalf("n=%d d=%d k=%d query %d: d2 of %d = %v", tc.n, tc.d, tc.k, i, j, d2[p])
				}
			}
		}
		// Off-set query point, no exclusion.
		q := make([]float64, tc.d)
		got := kq.Do(q, -1, tc.maxD2, nil)
		if want := bruteKNN(x, q, -1, tc.k, tc.maxD2); !sameInt32(got, want) {
			t.Fatalf("n=%d d=%d: external query got %v want %v", tc.n, tc.d, got, want)
		}
	}
}

// TestKDTreeKNNTies forces exact distance ties: on a lattice with many
// duplicate points, the (d², index) tie-break must pick the same set as
// brute force.
func TestKDTreeKNNTies(t *testing.T) {
	var x [][]float64
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			p := []float64{float64(i), float64(j)}
			x = append(x, p, append([]float64(nil), p...)) // every point twice
		}
	}
	tr, err := NewKDTree(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 9; k++ {
		kq := tr.NewKNNQuery(k)
		var buf []int32
		for i := range x {
			buf = kq.Do(x[i], int32(i), -1, buf[:0])
			want := bruteKNN(x, x[i], i, k, -1)
			if !sameInt32(buf, want) {
				t.Fatalf("k=%d query %d: got %v want %v", k, i, buf, want)
			}
		}
	}
}

// TestKDTreeRadiusMatchesBrute compares Radius to a brute scan (as sets).
func TestKDTreeRadiusMatchesBrute(t *testing.T) {
	cases := []struct {
		n, d int
		r2   float64
	}{
		{1, 1, 1}, {50, 1, 0.5}, {200, 2, 1.0}, {200, 4, 4.0}, {300, 3, 0.01},
	}
	for _, tc := range cases {
		x := randomPoints(int64(tc.n+7*tc.d), tc.n, tc.d)
		tr, err := NewKDTree(x, 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf []int32
		for i := range x {
			buf = tr.Radius(x[i], int32(i), tc.r2, buf[:0])
			slices.Sort(buf)
			want := bruteRadius(x, x[i], i, tc.r2)
			if !sameInt32(buf, want) {
				t.Fatalf("n=%d d=%d r2=%v query %d: got %v want %v", tc.n, tc.d, tc.r2, i, buf, want)
			}
		}
	}
	// Negative/NaN radius yields nothing.
	x := randomPoints(3, 10, 2)
	tr, _ := NewKDTree(x, 1)
	if got := tr.Radius(x[0], -1, -1, nil); len(got) != 0 {
		t.Fatalf("negative r2: got %v", got)
	}
	if got := tr.Radius(x[0], -1, math.NaN(), nil); len(got) != 0 {
		t.Fatalf("NaN r2: got %v", got)
	}
}

// TestKDTreeWorkersSameLayout asserts the parallel build produces the same
// tree layout as the serial one.
func TestKDTreeWorkersSameLayout(t *testing.T) {
	x := randomPoints(99, 20000, 3)
	serial, err := NewKDTree(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		par, err := NewKDTree(x, w)
		if err != nil {
			t.Fatal(err)
		}
		if !sameInt32(serial.idx, par.idx) {
			t.Fatalf("workers=%d: index layout differs from serial build", w)
		}
	}
}

// TestKDTreeDegenerate covers identical points and k exceeding n.
func TestKDTreeDegenerate(t *testing.T) {
	identical := make([][]float64, 40)
	for i := range identical {
		identical[i] = []float64{2, 2}
	}
	tr, err := NewKDTree(identical, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.NewKNNQuery(5).Do(identical[0], 0, -1, nil)
	// All distances tie at 0: indices 1..5 win the index tie-break.
	want := []int32{1, 2, 3, 4, 5}
	if !sameInt32(got, want) {
		t.Fatalf("identical points: got %v want %v", got, want)
	}
	if got := tr.NewKNNQuery(100).Do(identical[0], 0, -1, nil); len(got) != 39 {
		t.Fatalf("k>n: %d results, want 39", len(got))
	}
	if got := tr.NewKNNQuery(0).Do(identical[0], -1, -1, nil); len(got) != 0 {
		t.Fatalf("k=0: got %v", got)
	}
}
