package graph

// Spatial-index construction paths. The paper's Theorem II.1 regime is
// large n with a shrinking bandwidth h_n, where the kernel's compact
// support (weight exactly zero beyond distance h) makes spatial pruning
// exact: a KD-tree answers radius queries and k-NN queries in about
// O(log n + k) per point, so construction runs in O(n log n) time and
// O(nk) memory instead of materializing the O(n²) distance matrix. The
// radius path re-applies the brute-force path's weight filter to the
// points each query returns, evaluating distances with kernel.Dist2; the
// k-NN path takes the distances its queries computed, which are bitwise
// kernel.Dist2 too. Dist2 is bitwise-identical to PairwiseDist2 entries,
// so the CSR output is byte-identical to BuildFromDist2 on the same input,
// at every worker count.

import (
	"fmt"
	"slices"

	"repro/internal/kernel"
	"repro/internal/parallel"
	"repro/internal/spatial"
)

// IndexKind selects the neighbour-search backend used by Build.
type IndexKind int

// Supported index backends.
const (
	// IndexAuto (the default) picks the KD-tree when the build has a
	// compactly supported kernel or a k-NN selection and the d/n
	// heuristic predicts a win; otherwise it falls back to the
	// dense-matrix path.
	IndexAuto IndexKind = iota
	// IndexBrute forces the dense O(n²) distance-matrix path (the
	// reference implementation, and the only option for full graphs with
	// unbounded kernels).
	IndexBrute
	// IndexKDTree forces the KD-tree, which answers both k-NN and radius
	// queries.
	IndexKDTree
)

// String returns the lowercase backend name.
func (k IndexKind) String() string {
	switch k {
	case IndexAuto:
		return "auto"
	case IndexBrute:
		return "brute"
	case IndexKDTree:
		return "kdtree"
	default:
		return fmt.Sprintf("IndexKind(%d)", int(k))
	}
}

// WithIndex selects the neighbour-search backend for Build. The graph is
// byte-identical across backends; the choice only affects construction time
// and memory (the KD-tree avoids the O(n²) distance matrix). Forcing
// IndexKDTree on a build with neither a compact kernel nor a k-NN
// selection is reported as an error by Build.
func WithIndex(kind IndexKind) Option {
	return optionFunc(func(b *Builder) { b.index = kind })
}

// Auto-heuristic bounds. KD-tree queries degrade geometrically with the
// dimension, while the dense path is dimension-robust; and below a few
// hundred points the O(n²) matrix is too small for index setup to pay off.
const (
	autoMaxKDTreeDim = 16
	autoMinIndexN    = 512
)

// resolveIndex picks the construction backend for n points in dimension
// dim, validating explicit choices. The tree needs a k-NN selection or a
// compact kernel, whose weight is exactly zero beyond distance h; a full
// Gaussian graph connects every pair and only the dense path builds it.
func (b *Builder) resolveIndex(n, dim int) (IndexKind, error) {
	treeOK := b.knn > 0 || b.kernel.Kind().CompactSupport()
	switch b.index {
	case IndexBrute:
		return IndexBrute, nil
	case IndexKDTree:
		if !treeOK {
			return 0, fmt.Errorf("graph: kd-tree index needs k-NN or a compact kernel: %w", ErrParam)
		}
		return IndexKDTree, nil
	}
	// IndexAuto: the tree only when it can answer the query shape and the
	// d/n heuristic predicts a win over the dense path.
	if !treeOK || dim == 0 || n < autoMinIndexN || dim > autoMaxKDTreeDim {
		return IndexBrute, nil
	}
	return IndexKDTree, nil
}

// buildRadiusKDTree is the KD-tree radius build of a compact kernel: each
// row takes the points of its ball of radius h, sorted, and keeps those of
// positive weight exactly like the dense path's fullRows, so the assembled
// CSR matches it byte for byte.
func (b *Builder) buildRadiusKDTree(x [][]float64) (*Graph, error) {
	t, err := spatial.NewKDTree(x, b.workers)
	if err != nil {
		return nil, fmt.Errorf("graph: kd-tree index: %w", err)
	}
	h := b.kernel.Bandwidth()
	cols, vals := b.radiusRows(x, t, h*h)
	return assembleGraph(len(x), cols, vals, b.workers)
}

// radiusRows assembles the per-row (column, value) lists of a radius
// build: row i holds every j != i within squared distance r2 of x[i] whose
// weight is positive, ascending.
func (b *Builder) radiusRows(x [][]float64, t *spatial.KDTree, r2 float64) (cols [][]int, vals [][]float64) {
	n := len(x)
	cols = make([][]int, n)
	vals = make([][]float64, n)
	parallel.For(b.workers, n, func(lo, hi int) {
		var buf []int32
		for i := lo; i < hi; i++ {
			buf = t.Radius(x[i], int32(i), r2, buf[:0])
			slices.Sort(buf)
			ci := make([]int, 0, len(buf))
			vi := make([]float64, 0, len(buf))
			for _, j := range buf {
				if w := b.kernel.WeightDist2(kernel.Dist2(x[i], x[j])); w > 0 {
					ci = append(ci, int(j))
					vi = append(vi, w)
				}
			}
			cols[i], vals[i] = ci, vi
		}
	})
	return cols, vals
}

// buildKNNKDTree is the KD-tree k-NN build: per-row bounded-priority
// descent selects the same (distance, index)-ordered neighbour set as the
// dense path's quickselect, with the squared distances its leaf scans
// computed, and the shared merge attaches the weights.
func (b *Builder) buildKNNKDTree(x [][]float64) (*Graph, error) {
	t, err := spatial.NewKDTree(x, b.workers)
	if err != nil {
		return nil, fmt.Errorf("graph: kd-tree index: %w", err)
	}
	// Queries run in tree order, so consecutive queries descend mostly the
	// same nodes; each chunk reuses one query state. A query selects at
	// most min(k, n) points, so its appends stay in the row's slabs.
	order := t.Order()
	s := newKNNSel(len(x), b.knn)
	parallel.For(b.workers, len(x), func(lo, hi int) {
		q := t.NewKNNQuery(b.knn)
		for _, i := range order[lo:hi] {
			cols, d2 := s.slab(int(i))
			cols, d2 = q.DoDist2(x[i], i, -1, cols, d2)
			s.set(int(i), cols, d2, b.kernel)
		}
	})
	return b.knnGraph(s)
}

// assembleGraph finishes a build from per-row sorted lists.
func assembleGraph(n int, cols [][]int, vals [][]float64, workers int) (*Graph, error) {
	w, err := assembleCSR(n, cols, vals, workers)
	if err != nil {
		return nil, err
	}
	return &Graph{w: w}, nil
}
