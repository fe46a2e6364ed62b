package graph

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/kernel"
)

// FuzzReadEdgeList hardens the edge-list parser: arbitrary input must never
// panic, and any successfully parsed graph must satisfy the package
// invariants (symmetry, consistent counts) and round-trip through
// WriteEdgeList.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("nodes 3\n0 1 0.5\nloop 2 1\n")
	f.Add("nodes 0\n")
	f.Add("nodes 2\n# comment\n\n0 1 1e-3\n")
	f.Add("nodes 2\n0 1 NaN\n")
	f.Add("nodes -5\n")
	f.Add("vertices 2\n")
	// A repeated edge: both mirrored entries must sum in the same order.
	f.Add("nodes 2\n0 1 0.1\n0 1 0.1\n0 1 0.2\n0 1 1\n0 1 3\n0 1 1\n0 1 0.2\n")
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ReadEdgeList(strings.NewReader(src))
		if err != nil {
			return // rejection is fine; panics are not
		}
		if !g.Weights().IsSymmetric(0) {
			t.Fatal("parsed graph not symmetric")
		}
		var sb strings.Builder
		if err := g.WriteEdgeList(&sb); err != nil {
			t.Fatalf("write back: %v", err)
		}
		back, err := ReadEdgeList(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		if back.N() != g.N() || back.EdgeCount() != g.EdgeCount() {
			t.Fatal("round trip changed the graph")
		}
	})
}

// FuzzKNNGraph checks the KD-tree's k-NN and radius builds against the
// distance-matrix build, byte for byte (row extents, columns and value
// bits), at workers 1 and 2, and both against a naive construction: for
// k-NN, a full sort of every row by (d², index) and an edge wherever either
// endpoint selected the other and the weight is positive; for a radius
// build, an edge between every pair of positive weight. Bytes decode as
//
//	data[0]    dimension, 1 + data[0]%9
//	data[1]    k, 1 + data[1]%20
//	data[2]    bit 0: a radius build instead (no k-NN), under bit 1's
//	           kernel: set, Uniform, h = 1; clear, Epanechnikov, h = 1.5
//	data[3]    k-NN builds' kernel: even, Gaussian, h = 1; odd,
//	           Epanechnikov, h = 1.5, whose zero weights past h drop
//	           selected edges
//	data[4:]   per point, up to 200: a control byte, then (for a fresh
//	           point) one int8 coordinate per dimension on a half-unit
//	           lattice. Control%4 == 0 duplicates an earlier point, == 1
//	           continues the line through the last two points.
func FuzzKNNGraph(f *testing.F) {
	rng := rand.New(rand.NewSource(27))
	// TestSpatialMatchesBruteExactly's shapes, with its k values.
	for _, sz := range []struct{ n, d, k int }{
		{1, 2, 7}, {2, 3, 7}, {33, 1, 5}, {150, 2, 4}, {150, 3, 7}, {90, 5, 20}, {60, 8, 7},
	} {
		data := []byte{byte(sz.d - 1), byte(sz.k - 1), byte(rng.Intn(256)), byte(rng.Intn(256))}
		for i := 0; i < sz.n; i++ {
			data = append(data, byte(rng.Intn(256)))
			for j := 0; j < sz.d; j++ {
				data = append(data, byte(rng.Intn(256)))
			}
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		d := 1 + int(data[0]%9)
		knn := 1 + int(data[1]%20)
		k := kernel.MustNew(kernel.Gaussian, 1)
		if data[3]%2 == 1 {
			k = kernel.MustNew(kernel.Epanechnikov, 1.5)
		}
		if data[2]&1 != 0 {
			knn, k = 0, kernel.MustNew(kernel.Epanechnikov, 1.5)
			if data[2]&2 != 0 {
				k = kernel.MustNew(kernel.Uniform, 1)
			}
		}
		x := knnFuzzPoints(data[4:], d)
		if len(x) == 0 {
			return
		}
		n := len(x)
		d2, err := kernel.PairwiseDist2Workers(x, 1)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := NewBuilder(k, WithKNN(knn))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := bb.BuildFromDist2(n, d2)
		if err != nil {
			t.Fatal(err)
		}
		if msg := naiveMismatch(ref, x, k, knn); msg != "" {
			t.Fatalf("BuildFromDist2 (n=%d d=%d k=%d): %s", n, d, knn, msg)
		}
		for _, w := range []int{1, 2} {
			b, err := NewBuilder(k, WithKNN(knn), WithIndex(IndexKDTree), WithWorkers(w))
			if err != nil {
				t.Fatal(err)
			}
			g, err := b.Build(x)
			if err != nil {
				t.Fatal(err)
			}
			if msg := csrMismatch(g, ref); msg != "" {
				t.Fatalf("kd-tree workers=%d (n=%d d=%d k=%d): %s", w, n, d, knn, msg)
			}
		}
	})
}

// knnFuzzPoints decodes FuzzKNNGraph's point bytes.
func knnFuzzPoints(data []byte, d int) [][]float64 {
	var x [][]float64
	for len(data) > 0 && len(x) < 200 {
		ctrl := data[0]
		data = data[1:]
		n := len(x)
		switch {
		case ctrl%4 == 0 && n > 0:
			x = append(x, slices.Clone(x[int(ctrl>>2)%n]))
		case ctrl%4 == 1 && n > 1:
			p := make([]float64, d)
			for j := range p {
				p[j] = 2*x[n-1][j] - x[n-2][j]
			}
			x = append(x, p)
		default:
			if len(data) < d {
				return x
			}
			p := make([]float64, d)
			for j := range p {
				p[j] = float64(int8(data[j])%8) / 2
			}
			data = data[d:]
			x = append(x, p)
		}
	}
	return x
}

// csrMismatch describes the first difference between two graphs' CSR
// storage, or returns "".
func csrMismatch(got, want *Graph) string {
	if got.N() != want.N() {
		return fmt.Sprintf("%d nodes, want %d", got.N(), want.N())
	}
	for i := 0; i < got.N(); i++ {
		gc, gv := got.Weights().RowNNZ(i)
		wc, wv := want.Weights().RowNNZ(i)
		if !slices.Equal(gc, wc) {
			return fmt.Sprintf("row %d columns %v, want %v", i, gc, wc)
		}
		for p := range gv {
			if math.Float64bits(gv[p]) != math.Float64bits(wv[p]) {
				return fmt.Sprintf("row %d column %d weight %v, want %v", i, gc[p], gv[p], wv[p])
			}
		}
	}
	return ""
}

// naiveMismatch checks g against the k-NN graph (the full graph for knn
// 0) computed the long way from kernel.Dist2, and describes the first
// difference.
func naiveMismatch(g *Graph, x [][]float64, k *kernel.K, knn int) string {
	n := len(x)
	sel := make([]map[int]bool, n)
	for i := range x {
		var cand []int
		for j := range x {
			if j != i {
				cand = append(cand, j)
			}
		}
		slices.SortFunc(cand, func(a, c int) int {
			if r := cmp.Compare(kernel.Dist2(x[i], x[a]), kernel.Dist2(x[i], x[c])); r != 0 {
				return r
			}
			return cmp.Compare(a, c)
		})
		if knn > 0 {
			cand = cand[:min(knn, len(cand))]
		}
		sel[i] = map[int]bool{}
		for _, j := range cand {
			sel[i][j] = true
		}
	}
	for i := range x {
		var cols []int
		var vals []float64
		for j := range x {
			if j == i || (!sel[i][j] && !sel[j][i]) {
				continue
			}
			if w := k.WeightDist2(kernel.Dist2(x[i], x[j])); w > 0 {
				cols, vals = append(cols, j), append(vals, w)
			}
		}
		gc, gv := g.Weights().RowNNZ(i)
		if !slices.Equal(gc, cols) {
			return fmt.Sprintf("row %d columns %v, want %v", i, gc, cols)
		}
		for p := range gv {
			if math.Float64bits(gv[p]) != math.Float64bits(vals[p]) {
				return fmt.Sprintf("row %d column %d weight %v, want %v", i, gc[p], gv[p], vals[p])
			}
		}
	}
	return ""
}
