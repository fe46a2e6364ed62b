package graph

import (
	"bytes"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/kernel"
)

// randomPoints draws a deterministic point cloud for construction tests.
func randomPoints(seed int64, n, d int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
	}
	return x
}

// edgeListBytes serializes a graph for byte-identity comparisons.
func edgeListBytes(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSelectKMatchesSort cross-checks the quickselect partial selection
// against a full sort with the same (distance, index) tie-break.
func TestSelectKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		dist := make([]float64, n)
		for i := range dist {
			// Coarse quantization to force plenty of distance ties.
			dist[i] = float64(rng.Intn(5))
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		k := rng.Intn(n + 1)
		selectK(dist, idx, k)
		got := append([]int(nil), idx[:k]...)
		sort.Ints(got)

		ref := make([]int, n)
		for i := range ref {
			ref[i] = i
		}
		sort.Slice(ref, func(a, b int) bool { return distLess(dist, ref[a], ref[b]) })
		want := append([]int(nil), ref[:k]...)
		sort.Ints(want)

		if len(got) != len(want) {
			t.Fatalf("trial %d: selected %d, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d k=%d): selection %v, want %v", trial, n, k, got, want)
			}
		}
	}
}

// TestBuildDeterministicAcrossWorkers asserts byte-identical construction
// output for every worker count, across kernels and sparsifications.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	x := randomPoints(11, 150, 4)
	cases := []struct {
		name string
		kind kernel.Kind
		opts []Option
	}{
		{"gaussian-full", kernel.Gaussian, nil},
		{"gaussian-knn", kernel.Gaussian, []Option{WithKNN(7)}},
		{"epanechnikov-knn", kernel.Epanechnikov, []Option{WithKNN(7)}},
		{"uniform-radius", kernel.Uniform, nil},
		{"tricube-knn", kernel.Tricube, []Option{WithKNN(9)}},
	}
	workerCounts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	for _, tc := range cases {
		var ref []byte
		for _, w := range workerCounts {
			opts := append([]Option{WithWorkers(w)}, tc.opts...)
			b, err := NewBuilder(kernel.MustNew(tc.kind, 1.2), opts...)
			if err != nil {
				t.Fatal(err)
			}
			g, err := b.Build(x)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, w, err)
			}
			if !g.Weights().IsSymmetric(0) {
				t.Fatalf("%s workers=%d: weights not exactly symmetric", tc.name, w)
			}
			got := edgeListBytes(t, g)
			if ref == nil {
				ref = got
				continue
			}
			if !bytes.Equal(ref, got) {
				t.Fatalf("%s: workers=%d output differs from workers=%d", tc.name, w, workerCounts[0])
			}
		}
	}
}

// TestKNNByteIdenticalAcrossRuns asserts the sorted per-row construction
// yields identical CSR output on repeated builds of the same input (the old
// map-based dedup iterated in nondeterministic order).
func TestKNNByteIdenticalAcrossRuns(t *testing.T) {
	x := randomPoints(23, 120, 3)
	var ref []byte
	for run := 0; run < 5; run++ {
		b, err := NewBuilder(kernel.MustNew(kernel.Gaussian, 0.8), WithKNN(6))
		if err != nil {
			t.Fatal(err)
		}
		g, err := b.Build(x)
		if err != nil {
			t.Fatal(err)
		}
		got := edgeListBytes(t, g)
		if run == 0 {
			ref = got
			continue
		}
		if !bytes.Equal(ref, got) {
			t.Fatalf("run %d produced different CSR bytes", run)
		}
	}
}

// TestKNNMatchesSortReference validates the quickselect construction
// against a straightforward full-sort k-NN builder on the same input.
func TestKNNMatchesSortReference(t *testing.T) {
	x := randomPoints(31, 80, 3)
	n := len(x)
	const knn = 5
	k := kernel.MustNew(kernel.Gaussian, 1.0)

	b, err := NewBuilder(k, WithKNN(knn), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Build(x)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: full sort per row with the same (dist, index) tie-break,
	// symmetrized edge set.
	d2, err := kernel.PairwiseDist2Workers(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	type edge struct{ i, j int }
	want := make(map[edge]bool)
	for i := 0; i < n; i++ {
		row := d2[i*n : (i+1)*n]
		idx := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				idx = append(idx, j)
			}
		}
		sort.Slice(idx, func(a, b int) bool { return distLess(row, idx[a], idx[b]) })
		for _, j := range idx[:knn] {
			lo, hi := i, j
			if lo > hi {
				lo, hi = hi, lo
			}
			want[edge{lo, hi}] = true
		}
	}
	got := 0
	for i := 0; i < n; i++ {
		cols, vals := g.Weights().RowNNZ(i)
		for c, j := range cols {
			if j <= i {
				continue
			}
			got++
			if !want[edge{i, j}] {
				t.Fatalf("edge (%d,%d) not in reference selection", i, j)
			}
			if wv := k.WeightDist2(d2[i*n+j]); vals[c] != wv {
				t.Fatalf("edge (%d,%d) weight %v, want %v", i, j, vals[c], wv)
			}
		}
	}
	if got != len(want) {
		t.Fatalf("built %d edges, reference has %d", got, len(want))
	}
}

// TestSummarySinglePassMatchesParts checks the fused Summary against the
// individual EdgeCount/Components/Degrees accessors.
func TestSummarySinglePassMatchesParts(t *testing.T) {
	x := randomPoints(5, 60, 3)
	b, err := NewBuilder(kernel.MustNew(kernel.Gaussian, 0.7), WithKNN(4))
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Build(x)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Summary()
	if s.Edges != g.EdgeCount() {
		t.Fatalf("Summary.Edges = %d, EdgeCount = %d", s.Edges, g.EdgeCount())
	}
	if s.Components != len(g.Components()) {
		t.Fatalf("Summary.Components = %d, Components() = %d", s.Components, len(g.Components()))
	}
	deg := g.Degrees()
	var minD, maxD, sum float64
	minD = deg[0]
	maxD = deg[0]
	for _, d := range deg {
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
		sum += d
	}
	if s.MinDegree != minD || s.MaxDegree != maxD {
		t.Fatalf("Summary degrees [%v,%v], want [%v,%v]", s.MinDegree, s.MaxDegree, minD, maxD)
	}
	if mean := sum / float64(len(deg)); s.MeanDegree != mean {
		t.Fatalf("Summary.MeanDegree = %v, want %v", s.MeanDegree, mean)
	}
}
