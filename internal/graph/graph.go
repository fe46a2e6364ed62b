// Package graph builds and analyzes the weighted similarity graphs at the
// heart of graph-based semi-supervised learning: full-kernel graphs, k-NN
// and ε-ball sparsifications, the three standard Laplacians, and
// connectivity analysis (needed because Proposition II.2 of the paper is
// stated for connected graphs).
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
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
type Graph struct {
	w *sparse.CSR

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
	return &Graph{w: w}, nil
}

// FromDenseWeights wraps a dense symmetric similarity matrix, dropping exact
// zeros.
func FromDenseWeights(w *mat.Dense) (*Graph, error) {
	return FromWeights(sparse.FromDense(w, 0))
}

// N returns the node count.
func (g *Graph) N() int { return g.w.Rows() }

// Weights returns the underlying CSR similarity matrix.
func (g *Graph) Weights() *sparse.CSR { return g.w }

// Weight returns w_ij.
func (g *Graph) Weight(i, j int) float64 { return g.w.At(i, j) }

// Degrees returns d_i = Σ_j w_ij.
func (g *Graph) Degrees() []float64 { return g.w.RowSums() }

// EdgeCount returns the number of undirected edges with positive weight,
// excluding self-loops.
func (g *Graph) EdgeCount() int {
	count := 0
	for i := 0; i < g.N(); i++ {
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
type Builder struct {
	kernel  *kernel.K
	knn     int     // 0 = full graph
	eps     float64 // 0 = no ε-ball truncation
	loops   bool    // keep self-loops (w_ii = Profile(0))
	workers int     // 0 = GOMAXPROCS, 1 = serial
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

// WithEpsilon keeps only edges with distance at most eps.
func WithEpsilon(eps float64) Option {
	return optionFunc(func(b *Builder) { b.eps = eps })
}

// WithSelfLoops keeps self-similarities w_ii (the paper's W has w_ii = 1;
// self-loops cancel in D−W, so the default drops them for sparsity).
func WithSelfLoops() Option {
	return optionFunc(func(b *Builder) { b.loops = true })
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
	if b.eps < 0 {
		return nil, fmt.Errorf("graph: eps=%v: %w", b.eps, ErrParam)
	}
	if b.index < IndexAuto || b.index > IndexKDTree {
		return nil, fmt.Errorf("graph: index kind %d: %w", int(b.index), ErrParam)
	}
	return b, nil
}

// Build constructs the similarity graph over the points x.
//
// The construction path is chosen by the builder's index setting (see
// WithIndex): by default a spatial index replaces the O(n²) distance matrix
// whenever the build has a finite interaction radius (an ε-ball, a
// compactly supported kernel, or a k-NN selection) and the d/n heuristic
// predicts a win; otherwise the dense-matrix path runs. Every path produces
// byte-identical CSR output for the same input.
func (b *Builder) Build(x [][]float64) (*Graph, error) {
	if len(x) == 0 {
		return nil, ErrEmpty
	}
	dim := len(x[0])
	for _, xi := range x {
		if len(xi) != dim {
			return nil, fmt.Errorf("graph: point dimensions differ (%d vs %d): %w", len(xi), dim, ErrParam)
		}
	}
	kind, err := b.resolveIndex(len(x), dim)
	if err != nil {
		return nil, err
	}
	switch kind {
	case IndexGrid:
		return b.buildRadiusGrid(x)
	case IndexKDTree:
		if b.knn > 0 {
			return b.buildKNNKDTree(x)
		}
		return b.buildRadiusKDTree(x)
	}
	d2, err := kernel.PairwiseDist2Workers(x, b.workers)
	if err != nil {
		return nil, err
	}
	return b.BuildFromDist2(len(x), d2)
}

// BuildFromDist2 constructs the graph from a precomputed n×n row-major
// squared-distance matrix (symmetric; only the upper triangle is read).
// This is the fast path for experiments that sweep λ or kernels over a
// fixed dataset.
//
// Rows of the weight matrix are computed independently in parallel and
// assembled directly into CSR form with sorted per-row neighbour lists, so
// the output is byte-identical for every worker count and across runs.
func (b *Builder) BuildFromDist2(n int, d2 []float64) (*Graph, error) {
	if n <= 0 || len(d2) != n*n {
		return nil, fmt.Errorf("graph: need n*n=%d distances, got %d: %w", n*n, len(d2), ErrParam)
	}
	var (
		rowCols [][]int
		rowVals [][]float64
	)
	if b.knn > 0 {
		rowCols, rowVals = b.knnRows(n, d2)
	} else {
		rowCols, rowVals = b.fullRows(n, d2)
	}
	w, err := assembleCSR(n, rowCols, rowVals, b.workers)
	if err != nil {
		return nil, err
	}
	return &Graph{w: w}, nil
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

// fullRows computes the dense-kernel rows: every pair within the ε-ball
// (when set) with positive weight, plus the diagonal when self-loops are on.
func (b *Builder) fullRows(n int, d2 []float64) (cols [][]int, vals [][]float64) {
	cols = make([][]int, n)
	vals = make([][]float64, n)
	eps2 := b.eps * b.eps
	parallel.For(b.workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ci := make([]int, 0, n)
			vi := make([]float64, 0, n)
			for j := 0; j < n; j++ {
				if j == i {
					if b.loops {
						if w := b.kernel.WeightDist2(0); w != 0 {
							ci = append(ci, i)
							vi = append(vi, w)
						}
					}
					continue
				}
				dv := at(d2, n, i, j)
				if b.eps > 0 && dv > eps2 {
					continue
				}
				if w := b.kernel.WeightDist2(dv); w > 0 {
					ci = append(ci, j)
					vi = append(vi, w)
				}
			}
			cols[i], vals[i] = ci, vi
		}
	})
	return cols, vals
}

// knnRows computes the symmetrized k-nearest-neighbour rows. Per row the k
// nearest candidates are found by an O(n) quickselect (ties broken by index,
// see selectK) instead of a full sort; symmetrization merges each row's
// selection with the sorted reverse-selection lists, so every row comes out
// sorted by column with no hash-map dedup.
func (b *Builder) knnRows(n int, d2 []float64) (cols [][]int, vals [][]float64) {
	eps2 := b.eps * b.eps
	// Pass 1 (parallel): per-row selection, sorted ascending by index.
	sel := make([][]int, n)
	parallel.For(b.workers, n, func(lo, hi int) {
		idx := make([]int, 0, n-1)
		for i := lo; i < hi; i++ {
			row := d2[i*n : (i+1)*n]
			idx = idx[:0]
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				if b.eps > 0 && row[j] > eps2 {
					continue
				}
				idx = append(idx, j)
			}
			k := b.knn
			if k > len(idx) {
				k = len(idx)
			}
			selectK(row, idx, k)
			top := make([]int, k)
			copy(top, idx[:k])
			sort.Ints(top)
			sel[i] = top
		}
	})
	return b.symmetrizeKNN(n, sel, func(i, j int) float64 { return at(d2, n, i, j) })
}

// symmetrizeKNN turns per-row sorted neighbour selections into the final
// symmetrized rows (an edge survives if either endpoint selected it),
// attaching weights through the squared-distance accessor d2of. Both the
// dense-matrix and the spatial-index k-NN paths funnel through here, so the
// two construction paths share the exact edge merge and weight evaluation.
func (b *Builder) symmetrizeKNN(n int, sel [][]int, d2of func(i, j int) float64) (cols [][]int, vals [][]float64) {
	// Pass 2 (serial, O(nk)): reverse lists. Appending in ascending row
	// order leaves every rev list sorted ascending.
	cnt := make([]int, n)
	for i := range sel {
		for _, j := range sel[i] {
			cnt[j]++
		}
	}
	revptr := make([]int, n+1)
	for j := 0; j < n; j++ {
		revptr[j+1] = revptr[j] + cnt[j]
	}
	rev := make([]int, revptr[n])
	fill := make([]int, n)
	copy(fill, revptr[:n])
	for i := range sel {
		for _, j := range sel[i] {
			rev[fill[j]] = i
			fill[j]++
		}
	}

	// Pass 3 (parallel): merge sel[i] with rev[i] (both sorted, dedup) and
	// attach weights; an edge survives if either endpoint selected it.
	cols = make([][]int, n)
	vals = make([][]float64, n)
	parallel.For(b.workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a, c := sel[i], rev[revptr[i]:revptr[i+1]]
			ci := make([]int, 0, len(a)+len(c)+1)
			vi := make([]float64, 0, len(a)+len(c)+1)
			diagDone := !b.loops
			emit := func(j int) {
				if !diagDone && j > i {
					if w := b.kernel.WeightDist2(0); w != 0 {
						ci = append(ci, i)
						vi = append(vi, w)
					}
					diagDone = true
				}
				if w := b.kernel.WeightDist2(d2of(i, j)); w > 0 {
					ci = append(ci, j)
					vi = append(vi, w)
				}
			}
			p, q := 0, 0
			for p < len(a) || q < len(c) {
				switch {
				case q == len(c) || (p < len(a) && a[p] < c[q]):
					emit(a[p])
					p++
				case p == len(a) || c[q] < a[p]:
					emit(c[q])
					q++
				default: // equal: both endpoints selected the edge
					emit(a[p])
					p, q = p+1, q+1
				}
			}
			if !diagDone {
				if w := b.kernel.WeightDist2(0); w != 0 {
					ci = append(ci, i)
					vi = append(vi, w)
				}
			}
			cols[i], vals[i] = ci, vi
		}
	})
	return cols, vals
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
	deg := g.Degrees()
	coo := sparse.NewCOO(n, n)
	switch kind {
	case Unnormalized:
		for i := 0; i < n; i++ {
			cols, vals := g.w.RowNNZ(i)
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
			cols, vals := g.w.RowNNZ(i)
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
// smallest nodes, and the component count. One union-find pass computes the
// labelling the first time it is asked for; every later call, and every
// caller (Components, IsConnected, Summary, a hard problem's coverage
// check), shares it, so the returned slice must not be modified.
func (g *Graph) ComponentLabels() ([]int, int) {
	g.compOnce.Do(g.labelComponents)
	return g.compLabel, g.compCount
}

func (g *Graph) labelComponents() {
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

// Summary computes the graph statistics in a single traversal of the CSR,
// which accumulates edge counts and degrees together instead of re-walking
// the matrix per statistic; the component count comes from the graph's
// shared labelling (ComponentLabels).
func (g *Graph) Summary() Stats {
	n := g.N()
	s := Stats{Nodes: n}
	if n == 0 {
		return s
	}
	_, s.Components = g.ComponentLabels()
	deg := make([]float64, n)
	for i := 0; i < n; i++ {
		cols, vals := g.w.RowNNZ(i)
		var d float64
		for k, j := range cols {
			d += vals[k]
			if j > i && vals[k] != 0 {
				s.Edges++
			}
		}
		deg[i] = d
	}
	s.MinDegree, _ = mat.MinVec(deg)
	s.MaxDegree, _ = mat.MaxVec(deg)
	s.MeanDegree = mat.MeanVec(deg)
	return s
}
