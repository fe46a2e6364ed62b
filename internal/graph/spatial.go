package graph

// Spatial-index construction paths. The paper's Theorem II.1 regime is
// large n with a shrinking bandwidth h_n, where the kernel's compact
// support (weight exactly zero beyond distance h) makes spatial pruning
// exact: a grid cell-list answers radius queries in O(k) per point and a
// KD-tree answers k-NN queries in O(log n) per point, so construction runs
// in O(nk) / O(n log n) time and O(nk) memory instead of materializing the
// O(n²) distance matrix. The radius paths re-apply the brute-force path's
// exact distance and weight filters to the candidate sets, evaluating
// distances with kernel.Dist2; the k-NN path takes the distances its
// queries computed, which are bitwise kernel.Dist2 too. Dist2 is
// bitwise-identical to PairwiseDist2 entries, so the CSR output is
// byte-identical to BuildFromDist2 on the same input, at every worker
// count.

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/kernel"
	"repro/internal/parallel"
	"repro/internal/spatial"
)

// IndexKind selects the neighbour-search backend used by Build.
type IndexKind int

// Supported index backends.
const (
	// IndexAuto (the default) picks a spatial index when the build has a
	// finite interaction radius or a k-NN selection and the d/n heuristic
	// predicts a win; otherwise it falls back to the dense-matrix path.
	IndexAuto IndexKind = iota
	// IndexBrute forces the dense O(n²) distance-matrix path (the
	// reference implementation, and the only option for full graphs with
	// unbounded kernels).
	IndexBrute
	// IndexGrid forces the uniform cell-list. Radius builds only: the
	// build must have a finite interaction radius (WithEpsilon or a
	// compactly supported kernel) and no k-NN selection.
	IndexGrid
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
	case IndexGrid:
		return "grid"
	case IndexKDTree:
		return "kdtree"
	default:
		return fmt.Sprintf("IndexKind(%d)", int(k))
	}
}

// WithIndex selects the neighbour-search backend for Build. The graph is
// byte-identical across backends; the choice only affects construction time
// and memory (the spatial backends avoid the O(n²) distance matrix).
// Forcing IndexGrid or IndexKDTree on a configuration the backend cannot
// answer exactly (see the IndexKind docs) is reported as an error by Build.
func WithIndex(kind IndexKind) Option {
	return optionFunc(func(b *Builder) { b.index = kind })
}

// Auto-heuristic bounds. Cell-list and KD-tree queries degrade
// exponentially (3^d neighbour cells) respectively geometrically with the
// dimension, while the dense path is dimension-robust; and below a few
// hundred points the O(n²) matrix is too small for index setup to pay off.
const (
	autoMaxGridDim   = 6
	autoMaxKDTreeDim = 16
	autoMinIndexN    = 512
)

// gridCellPad sizes grid cells a hair above the interaction radius so
// floating-point cell assignment at the exact support boundary can never
// exclude a pair the brute-force filters would keep.
const gridCellPad = 1e-6

// gridRadiusOK reports whether a padded cell of this radius fits the grid's
// accepted range; outside it squared-distance filters under- or overflow and
// the KD-tree (exact in both regimes) takes over.
func gridRadiusOK(r float64) bool {
	cell := r * (1 + gridCellPad)
	return cell >= spatial.MinCell && cell <= spatial.MaxCell
}

// supportRadius returns the largest distance at which an edge can survive
// construction: the ε-ball radius, the compact kernel's support radius h,
// or the smaller of the two. +Inf means no finite radius (Gaussian kernel
// without an ε-ball), where only brute force or k-NN apply.
func (b *Builder) supportRadius() float64 {
	r := math.Inf(1)
	if b.eps > 0 {
		r = b.eps
	}
	if b.kernel.Kind().CompactSupport() {
		if h := b.kernel.Bandwidth(); h < r {
			r = h
		}
	}
	return r
}

// resolveIndex picks the construction backend for n points in dimension
// dim, validating explicit choices.
func (b *Builder) resolveIndex(n, dim int) (IndexKind, error) {
	radius := b.supportRadius()
	switch b.index {
	case IndexBrute:
		return IndexBrute, nil
	case IndexGrid:
		if b.knn > 0 {
			return 0, fmt.Errorf("graph: grid index cannot answer k-NN queries (use IndexKDTree): %w", ErrParam)
		}
		if math.IsInf(radius, 1) {
			return 0, fmt.Errorf("graph: grid index needs a finite radius (ε-ball or compact kernel): %w", ErrParam)
		}
		if !gridRadiusOK(radius) {
			return 0, fmt.Errorf("graph: radius %v outside the grid's cell range (use IndexKDTree): %w", radius, ErrParam)
		}
		return IndexGrid, nil
	case IndexKDTree:
		if b.knn == 0 && math.IsInf(radius, 1) {
			return 0, fmt.Errorf("graph: kd-tree index needs k-NN or a finite radius: %w", ErrParam)
		}
		return IndexKDTree, nil
	}
	// IndexAuto: spatial only when the backend can answer the query shape
	// exactly and the d/n heuristic predicts a win over the dense path.
	if dim == 0 || n < autoMinIndexN {
		return IndexBrute, nil
	}
	if b.knn > 0 {
		if dim <= autoMaxKDTreeDim {
			return IndexKDTree, nil
		}
		return IndexBrute, nil
	}
	if math.IsInf(radius, 1) {
		return IndexBrute, nil // full graph: every pair interacts
	}
	if dim <= autoMaxGridDim && gridRadiusOK(radius) {
		return IndexGrid, nil
	}
	if dim <= autoMaxKDTreeDim {
		return IndexKDTree, nil
	}
	return IndexBrute, nil
}

// radiusRows assembles the per-row (column, value) lists of a radius build
// from a candidate source: candidates(i, buf) must append a superset of
// every j whose edge to i could survive the distance and weight filters
// (including or excluding i itself; self-pairs are skipped here). Rows are
// filtered and sorted exactly like the dense path's fullRows, so the
// assembled CSR matches it byte for byte.
func (b *Builder) radiusRows(x [][]float64, candidates func(i int, buf []int32) []int32) (cols [][]int, vals [][]float64) {
	n := len(x)
	cols = make([][]int, n)
	vals = make([][]float64, n)
	eps2 := b.eps * b.eps
	parallel.For(b.workers, n, func(lo, hi int) {
		var buf []int32
		for i := lo; i < hi; i++ {
			buf = candidates(i, buf[:0])
			slices.Sort(buf)
			ci := make([]int, 0, len(buf))
			vi := make([]float64, 0, len(buf))
			diagDone := !b.loops
			emitDiag := func() {
				if w := b.kernel.WeightDist2(0); w != 0 {
					ci = append(ci, i)
					vi = append(vi, w)
				}
				diagDone = true
			}
			for _, j32 := range buf {
				j := int(j32)
				if !diagDone && j >= i {
					if j == i {
						emitDiag()
						continue
					}
					emitDiag()
				}
				if j == i {
					continue
				}
				dv := kernel.Dist2(x[i], x[j])
				if b.eps > 0 && dv > eps2 {
					continue
				}
				if w := b.kernel.WeightDist2(dv); w > 0 {
					ci = append(ci, j)
					vi = append(vi, w)
				}
			}
			if !diagDone {
				emitDiag()
			}
			cols[i], vals[i] = ci, vi
		}
	})
	return cols, vals
}

// buildRadiusGrid is the cell-list radius build: O(n·k) for k retained
// neighbours per point, O(n) index memory.
func (b *Builder) buildRadiusGrid(x [][]float64) (*Graph, error) {
	r := b.supportRadius()
	g, err := spatial.NewGrid(x, r*(1+gridCellPad))
	if err != nil {
		return nil, fmt.Errorf("graph: grid index: %w", err)
	}
	cols, vals := b.radiusRows(x, func(i int, buf []int32) []int32 {
		return g.Candidates(x[i], buf)
	})
	return assembleGraph(len(x), cols, vals, b.workers)
}

// buildRadiusKDTree is the KD-tree radius build, for dimensions where the
// 3^d cell enumeration of the grid stops paying.
func (b *Builder) buildRadiusKDTree(x [][]float64) (*Graph, error) {
	r := b.supportRadius()
	t, err := spatial.NewKDTree(x, b.workers)
	if err != nil {
		return nil, fmt.Errorf("graph: kd-tree index: %w", err)
	}
	r2 := r * r
	cols, vals := b.radiusRows(x, func(i int, buf []int32) []int32 {
		// Self is kept (radiusRows skips it) so the candidate superset
		// matches the grid path's shape.
		return t.Radius(x[i], -1, r2, buf)
	})
	return assembleGraph(len(x), cols, vals, b.workers)
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
	maxD2 := -1.0
	if b.eps > 0 {
		maxD2 = b.eps * b.eps
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
			cols, d2 = q.DoDist2(x[i], i, maxD2, cols, d2)
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
