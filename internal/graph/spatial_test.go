package graph

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/kernel"
)

// tiePoints draws a point cloud engineered to stress exact-arithmetic edge
// cases: with probability ~1/3 a point duplicates an earlier one, and
// coordinates snap to a coarse lattice with probability ~1/2 so colinear
// layouts and exact distance ties occur routinely.
func tiePoints(seed int64, n, d int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	for i := range x {
		if i > 0 && rng.Float64() < 1.0/3 {
			dup := make([]float64, d)
			copy(dup, x[rng.Intn(i)])
			x[i] = dup
			continue
		}
		xi := make([]float64, d)
		for j := range xi {
			v := rng.NormFloat64() * 2
			if rng.Float64() < 0.5 {
				v = math.Round(v)
			}
			xi[j] = v
		}
		x[i] = xi
	}
	return x
}

// buildBytes builds a graph with the given options and serializes it.
func buildBytes(t *testing.T, k *kernel.K, x [][]float64, opts ...Option) []byte {
	t.Helper()
	b, err := NewBuilder(k, opts...)
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Build(x)
	if err != nil {
		t.Fatal(err)
	}
	return edgeListBytes(t, g)
}

// TestSpatialMatchesBruteExactly is the property test of the spatial
// subsystem's central contract: for every construction configuration and
// every worker count, Build on the KD-tree produces a CSR byte-identical to
// the brute-force distance-matrix path — including on point sets full of
// duplicates and exact lattice ties.
func TestSpatialMatchesBruteExactly(t *testing.T) {
	gauss := kernel.MustNew(kernel.Gaussian, 1.0)
	epan := kernel.MustNew(kernel.Epanechnikov, 1.5)
	tri := kernel.MustNew(kernel.Triangular, 2.0)
	uni := kernel.MustNew(kernel.Uniform, 1.0)

	cases := []struct {
		name string
		k    *kernel.K
		opts []Option
	}{
		{"epan-radius", epan, nil},
		{"uniform-radius", uni, nil},
		{"tri-radius", tri, nil},
		{"gauss-knn", gauss, []Option{WithKNN(7)}},
		{"epan-knn", epan, []Option{WithKNN(4)}},
		{"gauss-knn-big", gauss, []Option{WithKNN(1000)}},
	}
	sizes := []struct{ n, d int }{
		{1, 2}, {2, 3}, {33, 1}, {150, 2}, {150, 3}, {90, 5}, {60, 8},
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, tc := range cases {
		for _, sz := range sizes {
			x := tiePoints(int64(1000+sz.n*10+sz.d), sz.n, sz.d)
			ref := buildBytes(t, tc.k, x, append([]Option{WithIndex(IndexBrute), WithWorkers(1)}, tc.opts...)...)
			for _, w := range workerCounts {
				opts := append([]Option{WithIndex(IndexKDTree), WithWorkers(w)}, tc.opts...)
				got := buildBytes(t, tc.k, x, opts...)
				if !bytes.Equal(got, ref) {
					t.Fatalf("%s n=%d d=%d workers=%d: KD-tree CSR differs from brute force",
						tc.name, sz.n, sz.d, w)
				}
			}
			// The auto heuristic must agree with brute whichever backend it
			// picks.
			got := buildBytes(t, tc.k, x, append([]Option{WithWorkers(2)}, tc.opts...)...)
			if !bytes.Equal(got, ref) {
				t.Fatalf("%s n=%d d=%d auto: CSR differs from brute force", tc.name, sz.n, sz.d)
			}
		}
	}
}

// TestResolveIndexHeuristic pins the auto d/n routing and the explicit
// override validation.
func TestResolveIndexHeuristic(t *testing.T) {
	gauss := kernel.MustNew(kernel.Gaussian, 1.0)
	epan := kernel.MustNew(kernel.Epanechnikov, 1.0)
	cases := []struct {
		name string
		k    *kernel.K
		opts []Option
		n, d int
		want IndexKind
	}{
		{"small-n-brute", epan, nil, 100, 2, IndexBrute},
		{"radius-low-d-kdtree", epan, nil, 2000, 2, IndexKDTree},
		{"radius-mid-d-kdtree", epan, nil, 2000, 10, IndexKDTree},
		{"radius-high-d-brute", epan, nil, 2000, 20, IndexBrute},
		{"gauss-full-brute", gauss, nil, 2000, 2, IndexBrute},
		{"knn-kdtree", gauss, []Option{WithKNN(5)}, 2000, 3, IndexKDTree},
		{"knn-high-d-brute", gauss, []Option{WithKNN(5)}, 2000, 32, IndexBrute},
		{"forced-brute", epan, []Option{WithIndex(IndexBrute)}, 2000, 2, IndexBrute},
		{"forced-kdtree-small-n", epan, []Option{WithIndex(IndexKDTree)}, 10, 2, IndexKDTree},
	}
	for _, tc := range cases {
		b, err := NewBuilder(tc.k, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := b.resolveIndex(tc.n, tc.d)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Fatalf("%s: resolved %v, want %v", tc.name, got, tc.want)
		}
	}

	// Invalid forced combinations.
	if _, err := NewBuilder(gauss, WithIndex(IndexKind(99))); !errors.Is(err, ErrParam) {
		t.Fatalf("out-of-range kind: %v", err)
	}
	b, err := NewBuilder(gauss, WithIndex(IndexKDTree))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(tiePoints(1, 20, 2)); !errors.Is(err, ErrParam) {
		t.Fatalf("kdtree without radius or knn: %v", err)
	}
}

// TestBuildDegenerateRadiiMatchesBrute pins the KD-tree radius build where
// the squared support radius leaves the normal range: points and bandwidth
// scaled together so that h² underflows to 0 (2^-540, 2^-1000) or
// overflows to +Inf (2^+600, 2^+1000). Squared distances round the same
// way, so the KD-tree's d² <= h² test and its pruning must still keep
// exactly the pairs brute force gives a positive weight.
func TestBuildDegenerateRadiiMatchesBrute(t *testing.T) {
	for _, kind := range []kernel.Kind{kernel.Epanechnikov, kernel.Uniform, kernel.Tricube} {
		for _, d := range []int{1, 2, 9} {
			base := tiePoints(int64(300+d), 300, d)
			for _, scale := range []float64{0x1p-540, 0x1p-1000, 0x1p+600, 0x1p+1000} {
				h := 1.5 * scale
				if h2 := h * h; h2 != 0 && !math.IsInf(h2, 1) {
					t.Fatalf("scale %g: h² = %g is not degenerate", scale, h2)
				}
				x := make([][]float64, len(base))
				for i, p := range base {
					x[i] = make([]float64, d)
					for j, v := range p {
						x[i][j] = v * scale
					}
				}
				k := kernel.MustNew(kind, h)
				ref := buildBytes(t, k, x, WithIndex(IndexBrute), WithWorkers(1))
				got := buildBytes(t, k, x, WithIndex(IndexKDTree), WithWorkers(2))
				if !bytes.Equal(got, ref) {
					t.Fatalf("%v d=%d scale %g: KD-tree CSR differs from brute force", kind, d, scale)
				}
			}
		}
	}
}

// TestBuildValidatesRaggedPoints ensures dimension validation happens before
// any index is consulted.
func TestBuildValidatesRaggedPoints(t *testing.T) {
	b, err := NewBuilder(kernel.MustNew(kernel.Gaussian, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrParam) {
		t.Fatalf("ragged points: %v", err)
	}
}

// TestIndexKindString pins the flag-facing names.
func TestIndexKindString(t *testing.T) {
	want := map[IndexKind]string{
		IndexAuto: "auto", IndexBrute: "brute", IndexKDTree: "kdtree",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("IndexKind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

// TestKNNKDTreeBuildAllocsFlat guards the k-NN build's allocation shape: the
// selections live in flat n·k slabs and the merge writes the CSR directly,
// so the number of objects a build allocates does not grow with n (only
// their sizes do). A per-row slice anywhere would add thousands.
func TestKNNKDTreeBuildAllocsFlat(t *testing.T) {
	b, err := NewBuilder(kernel.MustNew(kernel.Gaussian, 0.3), WithKNN(10), WithIndex(IndexKDTree), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		x := randomPoints(int64(n), n, 3)
		return testing.AllocsPerRun(3, func() {
			if _, err := b.Build(x); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(4096), allocs(16384)
	t.Logf("objects allocated per build: %v at 4,096 points, %v at 16,384", small, large)
	if large > small+4 {
		t.Fatalf("a k-NN build allocates %v objects at 4,096 points and %v at 16,384", small, large)
	}
}
