package spatial

import (
	"math"
	"sort"
	"testing"

	"repro/internal/kernel"
)

// FuzzKDTreeKNN checks the KD-tree's k-NN and radius queries against a
// brute-force scan under the strict (d², index) order. Bytes decode into up
// to 300 points in d = 1…20 with coordinates in -3…3, so duplicates and
// exact distance ties — where a pruning bound that is too tight would drop
// a tied point — are common:
//
//	data[0]    dimension, 1 + data[0]%20
//	data[1]    k, data[1]%40 (0 and k beyond the point count included)
//	data[2]    even: each query excludes its own point; odd: excludes none
//	data[3]    maxD2: data[3]%32, or -1 (no ε-ball) when data[3] >= 128
//	data[4:]   one coordinate per byte, int8 % 4
//
// Every point is queried with a reused KNNQuery (whose WorstDist2 must be
// the k-th selected distance, and whose DoDist2 must select the same points
// with their Dist2 bits), and with Radius at maxD2.
func FuzzKDTreeKNN(f *testing.F) {
	f.Add([]byte{1, 3, 1, 200, 0, 0, 1, 1, 2, 2, 3})
	f.Add([]byte{4, 10, 0, 5, 1, 2, 3, 4, 1, 2, 3, 4, 0, 0, 0, 0, 255, 1, 2, 3, 1, 2, 3, 4, 1, 1, 1, 1})
	f.Add(append([]byte{16, 39, 7, 255}, make([]byte, 400)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		d := 1 + int(data[0]%20)
		k := int(data[1] % 40)
		maxD2 := -1.0
		if data[3] < 128 {
			maxD2 = float64(data[3] % 32)
		}
		coords := data[4:]
		n := min(len(coords)/d, 300)
		if n == 0 {
			return
		}
		x := make([][]float64, n)
		for i := range x {
			x[i] = make([]float64, d)
			for j := range x[i] {
				x[i][j] = float64(int8(coords[i*d+j]) % 4)
			}
		}
		tr, err := NewKDTree(x, 1)
		if err != nil {
			t.Fatal(err)
		}
		q := tr.NewKNNQuery(k)
		var buf, sel []int32
		var d2 []float64
		for i := range x {
			ex := int32(-1)
			if data[2]%2 == 0 {
				ex = int32(i)
			}
			want := bruteKNN(x, x[i], int(ex), k, maxD2)
			buf = q.Do(x[i], ex, maxD2, buf[:0])
			if !sameInt32(buf, want) {
				t.Fatalf("Do(point %d, self %d, k %d, maxD2 %v) = %v, want %v", i, ex, k, maxD2, buf, want)
			}
			worst := -1.0
			for _, j := range want {
				worst = math.Max(worst, kernel.Dist2(x[i], x[j]))
			}
			if got := q.WorstDist2(); got != worst {
				t.Fatalf("WorstDist2 after point %d = %v, want %v", i, got, worst)
			}
			sel, d2 = q.DoDist2(x[i], ex, maxD2, sel[:0], d2[:0])
			if !sameInt32(sel, want) {
				t.Fatalf("DoDist2(point %d) = %v, want %v", i, sel, want)
			}
			for p, j := range sel {
				if math.Float64bits(d2[p]) != math.Float64bits(kernel.Dist2(x[i], x[j])) {
					t.Fatalf("DoDist2(point %d): d2 of %d = %v, want %v", i, j, d2[p], kernel.Dist2(x[i], x[j]))
				}
			}
			if got := q.WorstDist2(); got != worst {
				t.Fatalf("WorstDist2 after DoDist2 at point %d = %v, want %v", i, got, worst)
			}
			if maxD2 >= 0 {
				got := tr.Radius(x[i], ex, maxD2, nil)
				sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
				if want := bruteRadius(x, x[i], int(ex), maxD2); !sameInt32(got, want) {
					t.Fatalf("Radius(point %d, self %d, r2 %v) = %v, want %v", i, ex, maxD2, got, want)
				}
			}
		}
	})
}
