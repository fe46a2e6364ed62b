package graph

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/kernel"
)

// FuzzCoverage checks Builder.Covered against the graph's own answer:
// Build, then every component of ComponentLabels holding a labeled node, at
// workers 1 and 2. Both must fail together (a KD-tree forced on a Gaussian
// kernel) or agree. Bytes decode as
//
//	data[0]    dimension, 1 + data[0]%20 (the tree rule stops at 16)
//	data[1]    %6 the kernel: Gaussian h = 0.15, whose weights past
//	           distance 4.1 underflow to 0 (subnormal just inside);
//	           Gaussian h = 1; Uniform h = 1, whose weight at distance h is
//	           1; Epanechnikov h = 1.5, Triangular h = 0.5 and Tricube h = 1,
//	           whose weights at distance h are 0. /6%3 the index: auto
//	           (the KD-tree from 512 points at d ≤ 16), brute, KD-tree
//	data[2:]   per point, up to 1,200: a control byte, then (for a fresh
//	           point) one int8 coordinate per dimension on a half-unit
//	           lattice. Bit 7 labels the point, bits 3–6 are a parameter p
//	           and bits 0–2 the step: 0 duplicates the point p back; 1
//	           continues the line through the last two points; 2 jumps
//	           along it by p steps; 3 appends a copy of every point so far,
//	           labels included, shifted by p/2 in the first dimension;
//	           anything else is a fresh point
func FuzzCoverage(f *testing.F) {
	const (
		fresh = 4
		cont  = 1
		jump  = 2
		tile  = 3
		lab   = 0x80
	)
	coord := func(v float64) byte { return byte(int8(2 * v)) } // v on the lattice
	seed := func(d int, mode byte, pts ...byte) {
		f.Add(append([]byte{byte(d - 1), mode}, pts...))
	}
	// Epanechnikov h = 1.5 along a 1-D chain of steps 0.5 from a label at
	// -3.5: its far end jumps exactly h, where the weight is 0, to an
	// unlabeled pair. Then the same chain with its only label at the far
	// end, so the first search walks all of it.
	chain := []byte{lab | fresh, coord(-3.5), fresh, coord(-3)}
	for range 60 {
		chain = append(chain, cont)
	}
	farEnd := append(slices.Clone(chain), jump|3<<3, cont)
	labelAtEnd := append(append([]byte{fresh, coord(-3.5)}, chain[2:]...), lab|cont)
	for _, mode := range []byte{3, 3 + 6*2, 2 + 6*2} { // auto (brute force here), KD-tree, Uniform on the KD-tree
		seed(1, mode, farEnd...)
		seed(1, mode, labelAtEnd...)
	}
	// Underflowing Gaussian weights: 1-D points at -3.5 (labeled), -3, 0.5
	// and 1. The pairs 4 apart join the clusters by subnormal weights, and
	// the pair 4.5 apart underflows to 0; the second input drops -3, so 1
	// and 0.5 lose the label.
	seed(1, 0, lab|fresh, coord(-3.5), fresh, coord(-3), fresh, coord(0.5), fresh, coord(1))
	seed(1, 0, lab|fresh, coord(-3.5), fresh, coord(0.5), fresh, coord(1))
	// A KD-tree forced on a Gaussian kernel fails both ways.
	seed(2, 0+6*2, lab|fresh, 0, 0, fresh, 1, 1)
	// Tiled point sets of 1,024 points past the 512 of the tree rule, in 2
	// dimensions (KD-tree) and 17 (brute force), with duplicates.
	for _, d := range []int{2, 17} {
		pts := []byte{}
		for i := range 8 {
			ctrl := byte(fresh)
			if i == 3 {
				ctrl |= lab
			}
			pts = append(pts, ctrl)
			for j := range d {
				pts = append(pts, coord(float64((i*3+j)%7)/2-1.5))
			}
		}
		for _, p := range []byte{8, 4, 2, 1, 15, 3, 1} {
			pts = append(pts, tile|p<<3)
		}
		pts = append(pts, 0|2<<3)
		seed(d, 3, pts...)
		seed(d, 4, pts...)
	}
	rng := rand.New(rand.NewSource(28))
	for _, sz := range []struct{ n, d int }{{1, 2}, {40, 1}, {150, 3}, {90, 5}, {60, 8}, {60, 20}} {
		data := []byte{byte(sz.d - 1), byte(rng.Intn(256))}
		for range sz.n {
			data = append(data, byte(rng.Intn(256)))
			for range sz.d {
				data = append(data, byte(rng.Intn(256)))
			}
		}
		f.Add(data)
	}

	kernels := []*kernel.K{
		kernel.MustNew(kernel.Gaussian, 0.15), kernel.MustNew(kernel.Gaussian, 1),
		kernel.MustNew(kernel.Uniform, 1), kernel.MustNew(kernel.Epanechnikov, 1.5),
		kernel.MustNew(kernel.Triangular, 0.5), kernel.MustNew(kernel.Tricube, 1),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		d := 1 + int(data[0]%20)
		k := kernels[data[1]%6]
		index := []IndexKind{IndexAuto, IndexBrute, IndexKDTree}[data[1]/6%3]
		x, isLabeled := coverageFuzzPoints(data[2:], d)
		if len(x) == 0 {
			return
		}
		for _, w := range []int{1, 2} {
			b, err := NewBuilder(k, WithWorkers(w), WithIndex(index))
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.Covered(x, isLabeled)
			g, buildErr := b.Build(x)
			if (err != nil) != (buildErr != nil) {
				t.Fatalf("workers=%d: Covered err %v, Build err %v", w, err, buildErr)
			}
			if err != nil {
				continue
			}
			if want := componentsCovered(g, isLabeled); got != want {
				t.Fatalf("workers=%d (n=%d d=%d %v h=%v index %v): Covered = %v, components say %v",
					w, len(x), d, k.Kind(), k.Bandwidth(), index, got, want)
			}
		}
	})
}

// coverageFuzzPoints decodes FuzzCoverage's point bytes.
func coverageFuzzPoints(data []byte, d int) ([][]float64, []bool) {
	const maxPoints = 1200
	var (
		x   [][]float64
		lab []bool
	)
	for len(data) > 0 && len(x) < maxPoints {
		ctrl := data[0]
		data = data[1:]
		p, labeled, n := int(ctrl>>3&15), ctrl&0x80 != 0, len(x)
		switch step := ctrl & 7; {
		case step == 0 && n > 0:
			x, lab = append(x, slices.Clone(x[max(n-1-p, 0)])), append(lab, labeled)
		case (step == 1 || step == 2) && n > 1:
			if step == 1 {
				p = 1
			}
			q := make([]float64, d)
			for j := range q {
				q[j] = x[n-1][j] + float64(p)*(x[n-1][j]-x[n-2][j])
			}
			x, lab = append(x, q), append(lab, labeled)
		case step == 3 && n > 0:
			for i := range min(n, maxPoints-n) {
				q := slices.Clone(x[i])
				q[0] += float64(p) / 2
				x, lab = append(x, q), append(lab, lab[i])
			}
		default:
			if len(data) < d {
				return x, lab
			}
			q := make([]float64, d)
			for j := range q {
				q[j] = float64(int8(data[j])%8) / 2
			}
			data = data[d:]
			x, lab = append(x, q), append(lab, labeled)
		}
	}
	return x, lab
}

// componentsCovered is the coverage answer read from a built graph: every
// component holds a labeled node.
func componentsCovered(g *Graph, isLabeled []bool) bool {
	label, count := g.ComponentLabels()
	has := make([]bool, count)
	for i, l := range isLabeled {
		if l {
			has[label[i]] = true
		}
	}
	return !slices.Contains(has, false)
}

// TestCoveredRejects: a k-NN build, an empty or ragged point set and a
// label mask of the wrong length are errors.
func TestCoveredRejects(t *testing.T) {
	k := kernel.MustNew(kernel.Epanechnikov, 1)
	x := [][]float64{{0}, {0.5}}
	knn, err := NewBuilder(k, WithKNN(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := knn.Covered(x, []bool{true, false}); !errors.Is(err, ErrParam) {
		t.Fatalf("k-NN: err = %v, want ErrParam", err)
	}
	b, err := NewBuilder(k)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Covered(nil, nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty: err = %v, want ErrEmpty", err)
	}
	if _, err := b.Covered([][]float64{{0}, {1, 2}}, []bool{true, false}); !errors.Is(err, ErrParam) {
		t.Fatalf("ragged: err = %v, want ErrParam", err)
	}
	if _, err := b.Covered(x, []bool{true}); !errors.Is(err, ErrParam) {
		t.Fatalf("short mask: err = %v, want ErrParam", err)
	}
	for _, tc := range []struct {
		lab  []bool
		want bool
	}{{[]bool{false, false}, false}, {[]bool{true, true}, true}, {[]bool{false, true}, true}} {
		if got, err := b.Covered(x, tc.lab); err != nil || got != tc.want {
			t.Fatalf("labels %v: Covered = %v, %v; want %v", tc.lab, got, err, tc.want)
		}
	}
}

// TestDenseComponentLabels pins the labels of a matrix-stored complete
// Gaussian graph, h = 0.15, over 1-D points: 0, 4 and 8 join by subnormal
// weights, though 0 and 8 share no edge, and 8.3 joins 8; 12.5, 4.2 past
// 8.3, splits off by underflow; 20 is isolated too. Components are
// numbered by their smallest nodes, as the CSR graph's union-find numbers
// them.
func TestDenseComponentLabels(t *testing.T) {
	x := [][]float64{{0}, {8}, {4}, {20}, {12.5}, {8.3}}
	b, err := NewBuilder(kernel.MustNew(kernel.Gaussian, 0.15))
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Build(x)
	if err != nil {
		t.Fatal(err)
	}
	if g.dense == nil {
		t.Fatal("complete graph not matrix-stored")
	}
	if w := g.dense[1]; w != 0 {
		t.Fatalf("w(0, 8) = %v, want an underflow to 0", w)
	}
	label, count := g.ComponentLabels()
	if want := []int{0, 0, 0, 1, 2, 0}; count != 3 || !slices.Equal(label, want) {
		t.Fatalf("labels %v (%d components), want %v (3)", label, count, want)
	}
	if msg := storageMismatch(g); msg != "" {
		t.Fatal(msg)
	}
}
