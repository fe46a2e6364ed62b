// Package graph builds and analyzes the weighted similarity graphs at the
// heart of graph-based semi-supervised learning: full-kernel graphs (sparse
// under a compactly supported kernel), k-NN sparsifications, the three
// standard Laplacians, and connectivity analysis (needed because
// Proposition II.2 of the paper is stated for connected graphs).
package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

var (
	// ErrEmpty is returned for empty point sets.
	ErrEmpty = errors.New("graph: empty input")
	// ErrParam is returned for invalid construction parameters.
	ErrParam = errors.New("graph: invalid parameter")
)

// Graph is an undirected weighted graph over n nodes with a symmetric
// similarity matrix W (zero diagonal entries are permitted; the paper's RBF
// graphs have w_ii = 1, which cancels in all Laplacian quantities). A Graph
// is immutable once built, which lets it label its connected components
// once for every caller.
//
// A graph built from the distance matrix without a k-NN selection (a
// complete graph under a non-compact kernel, and any brute-force build of a
// compact one) keeps W as one n×n row-major matrix, with +0 wherever the
// weight is not positive; every other graph stores W as a CSR. Weights
// returns the CSR either way, building it from the matrix on first use.
type Graph struct {
	n     int
	dense []float64 // n×n row-major W of a matrix-stored graph; nil for a CSR graph
	deg   []float64 // a matrix-stored graph's degrees, summed as it was built

	wOnce sync.Once
	w     *sparse.CSR // the CSR of W; for a matrix-stored graph, set by Weights

	compOnce  sync.Once
	compLabel []int // compLabel[i] = component of node i (see ComponentLabels)
	compCount int
}

// FromWeights wraps a symmetric similarity matrix. The matrix is validated
// for squareness and symmetry (tolerance 1e-12 of the largest finite |w_ij|).
func FromWeights(w *sparse.CSR) (*Graph, error) {
	r, c := w.Dims()
	if r != c {
		return nil, fmt.Errorf("graph: weights %dx%d not square: %w", r, c, ErrParam)
	}
	var maxAbs float64
	for i := 0; i < r; i++ {
		_, vals := w.RowNNZ(i)
		for _, v := range vals {
			if a := math.Abs(v); a > maxAbs && !math.IsInf(a, 1) {
				maxAbs = a
			}
		}
	}
	if !w.IsSymmetric(1e-12 * maxAbs) {
		return nil, fmt.Errorf("graph: weights not symmetric: %w", ErrParam)
	}
	return &Graph{n: r, w: w}, nil
}

// FromDenseWeights wraps a dense symmetric similarity matrix, dropping exact
// zeros.
func FromDenseWeights(w *mat.Dense) (*Graph, error) {
	return FromWeights(sparse.FromDense(w, 0))
}

// N returns the node count.
func (g *Graph) N() int { return g.n }

// Weights returns the CSR similarity matrix. A matrix-stored graph builds it
// on the first call, once for every caller, with the positive weights of
// each row in ascending column order; the returned matrix must not be
// modified.
func (g *Graph) Weights() *sparse.CSR {
	if g.dense != nil {
		g.wOnce.Do(g.denseCSR)
	}
	return g.w
}

// denseCSR builds the CSR of a matrix-stored graph: a count pass sizing each
// row, then a fill pass.
func (g *Graph) denseCSR() {
	n := g.n
	indptr := make([]int, n+1)
	for i := range n {
		nz := 0
		for _, v := range g.dense[i*n : (i+1)*n] {
			if v != 0 {
				nz++
			}
		}
		indptr[i+1] = indptr[i] + nz
	}
	indices := make([]int, indptr[n])
	data := make([]float64, indptr[n])
	for i := range n {
		k := indptr[i]
		for j, v := range g.dense[i*n : (i+1)*n] {
			if v != 0 {
				indices[k], data[k] = j, v
				k++
			}
		}
	}
	w, err := sparse.NewCSR(n, n, indptr, indices, data)
	if err != nil {
		panic(err) // unreachable: rows are ascending and in range by construction
	}
	g.w = w
}

// DenseRow returns row i of W as a slice of length N(). A matrix-stored graph
// returns its own row, which the caller must not modify; a CSR graph
// scatters its stored row into buf, which must have length N(), zeroed
// elsewhere, and returns buf.
func (g *Graph) DenseRow(i int, buf []float64) []float64 {
	if g.dense != nil {
		return g.dense[i*g.n : (i+1)*g.n]
	}
	clear(buf)
	cols, vals := g.w.RowNNZ(i)
	for k, j := range cols {
		buf[j] = vals[k]
	}
	return buf
}

// Weight returns w_ij.
func (g *Graph) Weight(i, j int) float64 { return g.Weights().At(i, j) }

// Degrees returns d_i = Σ_j w_ij, each summed in ascending column order. A
// matrix-stored row adds its +0 entries too, which leaves every partial sum
// as the CSR's stored entries alone leave it, so both storages give the same
// bits.
func (g *Graph) Degrees() []float64 {
	if g.dense != nil {
		return slices.Clone(g.deg)
	}
	return g.w.RowSums()
}

// EdgeCount returns the number of undirected edges with positive weight,
// excluding self-loops.
func (g *Graph) EdgeCount() int {
	count := 0
	for i := 0; i < g.N(); i++ {
		if g.dense != nil {
			for _, v := range g.dense[i*g.n+i+1 : (i+1)*g.n] {
				if v != 0 {
					count++
				}
			}
			continue
		}
		cols, vals := g.w.RowNNZ(i)
		for k, j := range cols {
			if j > i && vals[k] != 0 {
				count++
			}
		}
	}
	return count
}

// Builder configures graph construction from points.
//
// A built graph has no self-loops: they cancel in D − W, and graphs that
// need w_ii come in through FromWeights.
type Builder struct {
	kernel  *kernel.K
	knn     int // 0 = full graph
	workers int // 0 = GOMAXPROCS, 1 = serial
	index   IndexKind
}

// Option customizes a Builder.
type Option interface {
	apply(*Builder)
}

type optionFunc func(*Builder)

func (f optionFunc) apply(b *Builder) { f(b) }

// WithKNN keeps only the k strongest neighbours of each node
// (symmetrized: an edge survives if either endpoint selects it).
func WithKNN(k int) Option {
	return optionFunc(func(b *Builder) { b.knn = k })
}

// WithWorkers sets the worker count for the parallel stages of
// construction (the pairwise distance pass, per-row weight computation, and
// k-NN selection). n <= 0 (the default) selects runtime.GOMAXPROCS(0);
// n == 1 forces the serial path. The built graph is byte-identical for
// every worker count.
func WithWorkers(n int) Option {
	return optionFunc(func(b *Builder) { b.workers = n })
}

// NewBuilder returns a Builder for the given kernel.
func NewBuilder(k *kernel.K, opts ...Option) (*Builder, error) {
	if k == nil {
		return nil, fmt.Errorf("graph: nil kernel: %w", ErrParam)
	}
	b := &Builder{kernel: k}
	for _, o := range opts {
		o.apply(b)
	}
	if b.knn < 0 {
		return nil, fmt.Errorf("graph: knn=%d: %w", b.knn, ErrParam)
	}
	if b.index < IndexAuto || b.index > IndexKDTree {
		return nil, fmt.Errorf("graph: index kind %d: %w", int(b.index), ErrParam)
	}
	return b, nil
}

// Build constructs the similarity graph over the points x.
//
// The construction path is chosen by the builder's index setting (see
// WithIndex): by default the KD-tree replaces the O(n²) distance matrix
// whenever the build has a compactly supported kernel or a k-NN selection,
// at least 512 points and at most 16 dimensions; otherwise the
// dense-matrix path runs. A k-NN build and a KD-tree build store W as a
// CSR; the dense-matrix path without k-NN turns its own distance matrix
// into the weight matrix in place and keeps it (see Graph). Every path
// gives the same Weights, byte for byte, for the same input.
func (b *Builder) Build(x [][]float64) (*Graph, error) {
	dim, err := checkDims(x)
	if err != nil {
		return nil, err
	}
	kind, err := b.resolveIndex(len(x), dim)
	if err != nil {
		return nil, err
	}
	if kind == IndexKDTree {
		if b.knn > 0 {
			return b.buildKNNKDTree(x)
		}
		return b.buildRadiusKDTree(x)
	}
	d2, err := kernel.PairwiseDist2Workers(x, b.workers)
	if err != nil {
		return nil, err
	}
	if b.knn > 0 {
		return b.knnGraph(b.knnRows(len(x), d2))
	}
	return b.denseGraph(len(x), d2, d2), nil
}

// checkDims returns the dimension of the points x, rejecting an empty set
// and ragged rows.
func checkDims(x [][]float64) (int, error) {
	if len(x) == 0 {
		return 0, ErrEmpty
	}
	dim := len(x[0])
	for _, xi := range x {
		if len(xi) != dim {
			return 0, fmt.Errorf("graph: point dimensions differ (%d vs %d): %w", len(xi), dim, ErrParam)
		}
	}
	return dim, nil
}

// BuildFromDist2 constructs the graph from a precomputed n×n row-major
// squared-distance matrix (symmetric; only the upper triangle is read),
// which it leaves unchanged. This is the fast path for experiments that
// sweep λ or kernels over a fixed dataset.
//
// Without k-NN the graph keeps its weights in an n×n matrix of its own
// (see Graph). A k-NN selection runs per row in parallel and is assembled
// straight into CSR form with sorted neighbour lists. Either way the graph
// is byte-identical for every worker count and across runs.
func (b *Builder) BuildFromDist2(n int, d2 []float64) (*Graph, error) {
	if n <= 0 || len(d2) != n*n {
		return nil, fmt.Errorf("graph: need n*n=%d distances, got %d: %w", n*n, len(d2), ErrParam)
	}
	if b.knn > 0 {
		return b.knnGraph(b.knnRows(n, d2))
	}
	return b.denseGraph(n, d2, make([]float64, n*n)), nil
}

// at returns the canonical (upper-triangle) squared distance between i and
// j, so both endpoints of an edge derive the weight from the same stored
// value even if the caller's matrix is asymmetric up to rounding.
func at(d2 []float64, n, i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	return d2[i*n+j]
}

// denseGraph writes the weights of the graph over the squared distances d2
// into w, which may be d2 itself, and keeps w as the graph's matrix. Each
// weight is computed once per pair, from the upper-triangle distance; a
// weight that is not positive is stored as +0, and so is the diagonal. The
// upper pass reads each distance before it overwrites it and reads no lower
// entry, so it may run in place. The second pass mirrors each row's lower
// triangle from the weights above the diagonal and sums the row's degree in
// ascending column order as it goes (see Degrees).
func (b *Builder) denseGraph(n int, d2, w []float64) *Graph {
	parallel.For(b.workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			w[i*n+i] = 0
			out := w[i*n+i+1 : (i+1)*n]
			for j, v := range d2[i*n+i+1 : (i+1)*n] {
				if wt := b.kernel.WeightDist2(v); wt > 0 {
					out[j] = wt
				} else {
					out[j] = 0
				}
			}
		}
	})
	deg := make([]float64, n)
	parallel.For(b.workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := w[i*n : (i+1)*n]
			var s float64
			for j := range row[:i] {
				row[j] = w[j*n+i]
				s += row[j]
			}
			for _, v := range row[i:] {
				s += v
			}
			deg[i] = s
		}
	})
	return &Graph{n: n, dense: w, deg: deg}
}

// knnRows selects each row's k nearest neighbours from the matrix. Per row
// an O(n) quickselect (ties broken by index, see selectK) replaces a full
// sort, and each selected edge carries the canonical at(d2, n, i, j), so
// both endpoints of a mutual edge hold the same weight.
func (b *Builder) knnRows(n int, d2 []float64) *knnSel {
	s := newKNNSel(n, b.knn)
	parallel.For(b.workers, n, func(lo, hi int) {
		idx := make([]int, 0, n-1)
		for i := lo; i < hi; i++ {
			row := d2[i*n : (i+1)*n]
			idx = idx[:0]
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				idx = append(idx, j)
			}
			k := min(b.knn, len(idx))
			selectK(row, idx, k)
			top := idx[:k]
			slices.Sort(top)
			cols, dv := s.slab(i)
			for _, j := range top {
				cols, dv = append(cols, int32(j)), append(dv, at(d2, n, i, j))
			}
			s.set(i, cols, dv, b.kernel)
		}
	})
	return s
}

// knnSel holds every row's k-NN selection in flat n·k slabs: row i's kept
// columns, ascending, are col[i*k : i*k+cnt[i]], with their edge weights
// at the same positions of wt. Both k-NN paths fill one and merge it with
// knnGraph.
type knnSel struct {
	k   int
	cnt []int32
	col []int32
	wt  []float64
}

// newKNNSel sizes the slabs of n rows of at most knn neighbours; no row
// can select more than the n points there are.
func newKNNSel(n, knn int) *knnSel {
	k := min(knn, n)
	return &knnSel{k: k, cnt: make([]int32, n), col: make([]int32, n*k), wt: make([]float64, n*k)}
}

// slab returns row i's empty slices of capacity k; appends of at most k
// entries land in the slabs.
func (s *knnSel) slab(i int) ([]int32, []float64) {
	o := i * s.k
	return s.col[o : o : o+s.k], s.wt[o : o : o+s.k]
}

// set records row i's selection, columns ascending with their squared
// distances, as written into the row's slab. Each weight is computed once,
// in place of its distance, and a selection whose weight is not positive
// is dropped: neither endpoint's row would store it.
func (s *knnSel) set(i int, cols []int32, d2 []float64, kern *kernel.K) {
	m := 0
	for p, j := range cols {
		if w := kern.WeightDist2(d2[p]); w > 0 {
			cols[m], d2[m] = j, w
			m++
		}
	}
	s.cnt[i] = int32(m)
}

// row returns row i's kept columns and weights.
func (s *knnSel) row(i int) ([]int32, []float64) {
	o := i * s.k
	return s.col[o : o+int(s.cnt[i])], s.wt[o : o+int(s.cnt[i])]
}

// knnGraph symmetrizes the selections straight into the CSR: an edge
// survives if either endpoint selected it, so row i is the sorted union of
// its own selection and the rows that selected i. The reverse entry of an
// edge reuses the weight its selecting row computed. When both endpoints
// selected the edge, both weights came from the same d² (Dist2 is
// symmetric bit for bit, and the matrix path reads the canonical
// upper-triangle entry), so either serves.
func (b *Builder) knnGraph(s *knnSel) (*Graph, error) {
	n := len(s.cnt)
	// Reverse lists (serial, O(nk)): filling them in ascending row order
	// leaves every list ascending.
	revptr := make([]int, n+1)
	for i := range n {
		cols, _ := s.row(i)
		for _, j := range cols {
			revptr[j+1]++
		}
	}
	for j := range n {
		revptr[j+1] += revptr[j]
	}
	rev := make([]int32, revptr[n])
	revW := make([]float64, revptr[n])
	fill := make([]int, n)
	copy(fill, revptr[:n])
	for i := range n {
		cols, wts := s.row(i)
		for p, j := range cols {
			rev[fill[j]], revW[fill[j]] = int32(i), wts[p]
			fill[j]++
		}
	}

	merge := func(i int, cols []int, vals []float64) int {
		a, aw := s.row(i)
		c, cw := rev[revptr[i]:revptr[i+1]], revW[revptr[i]:revptr[i+1]]
		return mergeRow(a, aw, c, cw, cols, vals)
	}
	// Row lengths, then the prefix sum, then the rows themselves (the two
	// merge passes run in parallel).
	indptr := make([]int, n+1)
	parallel.For(b.workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			indptr[i+1] = merge(i, nil, nil)
		}
	})
	for i := range n {
		indptr[i+1] += indptr[i]
	}
	indices := make([]int, indptr[n])
	data := make([]float64, indptr[n])
	parallel.For(b.workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			merge(i, indices[indptr[i]:indptr[i+1]], data[indptr[i]:indptr[i+1]])
		}
	})
	w, err := sparse.NewCSR(n, n, indptr, indices, data)
	if err != nil {
		return nil, err
	}
	return &Graph{n: n, w: w}, nil
}

// mergeRow merges a row's own selection a (weights aw) with the rows c
// that selected it (weights cw), both ascending, into cols and vals, and
// returns the row's length. With cols nil it only counts.
func mergeRow(a []int32, aw []float64, c []int32, cw []float64, cols []int, vals []float64) int {
	m := 0
	put := func(j int32, w float64) {
		if cols != nil {
			cols[m], vals[m] = int(j), w
		}
		m++
	}
	p, q := 0, 0
	for p < len(a) || q < len(c) {
		var j int32
		var w float64
		switch {
		case q == len(c) || (p < len(a) && a[p] < c[q]):
			j, w = a[p], aw[p]
			p++
		case p == len(a) || c[q] < a[p]:
			j, w = c[q], cw[q]
			q++
		default: // both endpoints selected the edge
			j, w = a[p], aw[p]
			p, q = p+1, q+1
		}
		put(j, w)
	}
	return m
}

// assembleCSR concatenates per-row sorted (column, value) lists into a CSR
// matrix: a serial prefix sum over row lengths followed by a parallel copy.
func assembleCSR(n int, cols [][]int, vals [][]float64, workers int) (*sparse.CSR, error) {
	indptr := make([]int, n+1)
	for i := 0; i < n; i++ {
		indptr[i+1] = indptr[i] + len(cols[i])
	}
	indices := make([]int, indptr[n])
	data := make([]float64, indptr[n])
	parallel.For(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(indices[indptr[i]:indptr[i+1]], cols[i])
			copy(data[indptr[i]:indptr[i+1]], vals[i])
		}
	})
	return sparse.NewCSR(n, n, indptr, indices, data)
}

// LaplacianKind selects among the standard graph Laplacians.
type LaplacianKind int

// Supported Laplacians.
const (
	// Unnormalized is L = D − W, the Laplacian in the paper's criteria.
	Unnormalized LaplacianKind = iota + 1
	// SymNormalized is L_sym = I − D^{-1/2} W D^{-1/2}.
	SymNormalized
	// RandomWalk is L_rw = I − D^{-1} W.
	RandomWalk
)

// Laplacian returns the requested Laplacian as a CSR matrix. Nodes with zero
// degree contribute zero rows for Unnormalized and identity rows for the
// normalized variants.
func (g *Graph) Laplacian(kind LaplacianKind) (*sparse.CSR, error) {
	n := g.N()
	w := g.Weights()
	deg := g.Degrees()
	coo := sparse.NewCOO(n, n)
	switch kind {
	case Unnormalized:
		for i := 0; i < n; i++ {
			cols, vals := w.RowNNZ(i)
			diag := deg[i]
			for k, j := range cols {
				if j == i {
					diag -= vals[k] // self-loop cancels within the row
					continue
				}
				if err := coo.Add(i, j, -vals[k]); err != nil {
					return nil, err
				}
			}
			if err := coo.Add(i, i, diag); err != nil {
				return nil, err
			}
		}
	case SymNormalized, RandomWalk:
		for i := 0; i < n; i++ {
			if err := coo.Add(i, i, 1); err != nil {
				return nil, err
			}
			if deg[i] == 0 {
				continue
			}
			cols, vals := w.RowNNZ(i)
			for k, j := range cols {
				if deg[j] == 0 {
					continue
				}
				var scale float64
				if kind == SymNormalized {
					scale = 1 / math.Sqrt(deg[i]*deg[j])
				} else {
					scale = 1 / deg[i]
				}
				if err := coo.Add(i, j, -vals[k]*scale); err != nil {
					return nil, err
				}
			}
		}
	default:
		return nil, fmt.Errorf("graph: laplacian kind %d: %w", int(kind), ErrParam)
	}
	return coo.ToCSR(), nil
}

// ComponentLabels returns each node's connected component (by
// positive-weight edges), numbered 0, 1, … in order of the components'
// smallest nodes, and the component count. One pass computes the labelling
// the first time it is asked for: a union-find over a CSR's stored entries,
// or a search over a matrix-stored graph's rows (see labelDense). Every
// later call, and every caller (Components, IsConnected, Summary, a hard
// problem's coverage check), shares it, so the returned slice must not be
// modified.
func (g *Graph) ComponentLabels() ([]int, int) {
	g.compOnce.Do(g.labelComponents)
	return g.compLabel, g.compCount
}

func (g *Graph) labelComponents() {
	if g.dense != nil {
		g.labelDense()
		return
	}
	n := g.N()
	uf := newUnionFind(n)
	for i := 0; i < n; i++ {
		cols, vals := g.w.RowNNZ(i)
		for k, j := range cols {
			if vals[k] > 0 && j != i {
				uf.union(i, j)
			}
		}
	}
	// Ascending node order meets each component first at its smallest node
	// and numbers it then. The unions are done, so the rank slots are free:
	// num[r] holds one plus the number of root r's component, zero until
	// the scan meets it.
	num := uf.rank
	clear(num)
	label := make([]int, n)
	count := 0
	for i := range label {
		r := uf.find(i)
		if num[r] == 0 {
			count++
			num[r] = count
		}
		label[i] = num[r] - 1
	}
	g.compLabel, g.compCount = label, count
}

// labelDense labels a matrix-stored graph's components by a breadth-first
// search from the smallest node not yet labelled, so the components are
// numbered in order of their smallest nodes. Each expansion scans only the
// nodes still unlabelled, in ascending order, and keeps the ones it does
// not reach, so a connected graph is labelled by one scan of one row.
func (g *Graph) labelDense() {
	n := g.n
	label := make([]int, n)
	rest := make([]int32, n) // the nodes not yet labelled, ascending
	for i := range rest {
		rest[i] = int32(i)
	}
	queue := make([]int32, 0, n)
	count := 0
	for len(rest) > 0 {
		label[rest[0]] = count
		queue = append(queue[:0], rest[0])
		rest = rest[1:]
		for h := 0; h < len(queue) && len(rest) > 0; h++ {
			row := g.dense[int(queue[h])*n : (int(queue[h])+1)*n]
			m := 0
			for _, v := range rest {
				if row[v] > 0 {
					label[v] = count
					queue = append(queue, v)
				} else {
					rest[m] = v
					m++
				}
			}
			rest = rest[:m]
		}
		count++
	}
	g.compLabel, g.compCount = label, count
}

// Components returns the connected components (by positive-weight edges) as
// a slice of node-index slices, each sorted ascending, ordered by their
// smallest node.
func (g *Graph) Components() [][]int {
	label, count := g.ComponentLabels()
	out := make([][]int, count)
	for i, c := range label {
		out[c] = append(out[c], i)
	}
	return out
}

// IsConnected reports whether the graph has a single connected component.
// The empty graph is not connected.
func (g *Graph) IsConnected() bool {
	_, count := g.ComponentLabels()
	return count == 1
}

// unionFind is a classic disjoint-set structure with path compression and
// union by rank.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}

// Stats summarizes a graph for diagnostics and experiment logs.
type Stats struct {
	Nodes      int
	Edges      int
	Components int
	MinDegree  float64
	MaxDegree  float64
	MeanDegree float64
}

// Summary computes the graph statistics from the stored weights, the
// matrix of a matrix-stored graph without building its CSR; the component
// count comes from the graph's shared labelling (ComponentLabels).
func (g *Graph) Summary() Stats {
	n := g.N()
	s := Stats{Nodes: n}
	if n == 0 {
		return s
	}
	_, s.Components = g.ComponentLabels()
	s.Edges = g.EdgeCount()
	deg := g.Degrees()
	s.MinDegree, _ = mat.MinVec(deg)
	s.MaxDegree, _ = mat.MaxVec(deg)
	s.MeanDegree = mat.MeanVec(deg)
	return s
}
