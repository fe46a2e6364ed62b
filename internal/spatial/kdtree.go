package spatial

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/kernel"
	"repro/internal/parallel"
)

// kdLeafSize is the segment length below which nodes stop splitting; leaf
// scans of this size beat further descent.
const kdLeafSize = 16

// kdParallelMin is the smallest subtree that is worth handing to another
// goroutine during construction.
const kdParallelMin = 4096

// prunePad relaxes the subtree pruning bound by a relative margin so that
// floating-point rounding in the bound's accumulation can never prune a
// subtree holding a point that ties the current worst candidate. A bound
// is a sum of non-negative per-dimension terms; summing them, and the k-NN
// descent's update of one term per level (the terms only grow down a
// path), each add a few ulps relative to the bound itself, and point
// distances carry the same order of rounding, all far below the pad. The
// selected set is decided purely by exact (d², index) comparisons on point
// distances, so the pad affects visit counts, never results.
const prunePad = 1e-12

// KDTree is a balanced KD-tree over a point set. Construction splits each
// node's points at the median of the widest box dimension, ordering by
// (coordinate, point index) so the layout is a pure function of the input —
// duplicate and colinear points split deterministically.
//
// The tree holds no child links and no per-node slices. Nodes sit in flat
// arrays in heap order — node i has children 2i+1 and 2i+2, and a node is
// a leaf exactly when it covers at most kdLeafSize points — and the points
// are copied once, in tree order, so a node's points are the contiguous
// rows [lo, hi) and a leaf scan is one kernel.Dist2Rows call. The tree
// keeps no reference to the input. Queries are read-only and safe for
// concurrent use.
type KDTree struct {
	dim  int
	idx  []int32     // tree position -> point index
	rows [][]float64 // tree position -> the point's coordinates
	// Per node: the covered tree positions [lo, hi), the split dimension
	// (internal nodes), and the exact bounding box at [node*dim, node*dim+dim).
	lo, hi         []int32
	split          []int32
	boxMin, boxMax []float64
}

// NewKDTree builds the tree in O(n log n). workers bounds the goroutines
// used for subtree construction, following the repo convention (<= 0
// selects GOMAXPROCS, 1 builds serially); the layout is identical for every
// worker count.
func NewKDTree(x [][]float64, workers int) (*KDTree, error) {
	dim, err := checkPoints(x)
	if err != nil {
		return nil, err
	}
	n := len(x)
	// Sibling sizes differ by at most one point, so every root-to-leaf path
	// is as long as the halvings of n down to kdLeafSize, give or take one;
	// the heap layout needs a slot for every node of the deepest level.
	nodes := 1
	for m := n; m > kdLeafSize; m = (m + 1) / 2 {
		nodes = 2*nodes + 1
	}
	t := &KDTree{
		dim:    dim,
		idx:    make([]int32, n),
		lo:     make([]int32, nodes),
		hi:     make([]int32, nodes),
		split:  make([]int32, nodes),
		boxMin: make([]float64, nodes*dim),
		boxMax: make([]float64, nodes*dim),
	}
	for i := range t.idx {
		t.idx[i] = int32(i)
	}
	b := &kdBuilder{t: t, x: x}
	b.budget.Store(int64(parallel.Workers(workers)) - 1)
	b.build(0, 0, int32(n))
	b.wg.Wait()
	data := make([]float64, n*dim)
	t.rows = make([][]float64, n)
	for p, i := range t.idx {
		t.rows[p] = append(data[p*dim:p*dim:(p+1)*dim], x[i]...)
	}
	return t, nil
}

// N returns the number of indexed points.
func (t *KDTree) N() int { return len(t.idx) }

// Order returns the point indices in tree order, where every node's points
// are a contiguous run: consecutive queries issued in this order descend
// mostly the same nodes and scan mostly the same rows. The slice is the
// tree's own; callers must not modify it.
func (t *KDTree) Order() []int32 { return t.idx }

func (t *KDTree) leaf(node int) bool { return t.hi[node]-t.lo[node] <= kdLeafSize }

// kdBuilder is the construction state: the input points, read only while
// building, and a shared count of extra goroutines still allowed. The
// split layout never depends on the count.
type kdBuilder struct {
	t      *KDTree
	x      [][]float64
	budget atomic.Int64
	wg     sync.WaitGroup
}

// build fills node with the subtree over idx[lo:hi].
func (b *kdBuilder) build(node int, lo, hi int32) {
	t := b.t
	t.lo[node], t.hi[node] = lo, hi
	boxMin := t.boxMin[node*t.dim : (node+1)*t.dim]
	boxMax := t.boxMax[node*t.dim : (node+1)*t.dim]
	copy(boxMin, b.x[t.idx[lo]])
	copy(boxMax, b.x[t.idx[lo]])
	for _, p := range t.idx[lo+1 : hi] {
		for j, v := range b.x[p] {
			if v < boxMin[j] {
				boxMin[j] = v
			}
			if v > boxMax[j] {
				boxMax[j] = v
			}
		}
	}
	if t.leaf(node) {
		return
	}
	// Split on the widest box dimension (ties to the lowest dimension).
	sd := 0
	widest := boxMax[0] - boxMin[0]
	for j := 1; j < t.dim; j++ {
		if w := boxMax[j] - boxMin[j]; w > widest {
			sd, widest = j, w
		}
	}
	t.split[node] = int32(sd)
	mid := lo + (hi-lo)/2
	b.selectNth(lo, hi, mid, sd)
	if hi-lo >= kdParallelMin && b.claim() {
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.build(2*node+1, lo, mid)
		}()
	} else {
		b.build(2*node+1, lo, mid)
	}
	b.build(2*node+2, mid, hi)
}

// claim takes a goroutine slot without a lock: the budget only decreases.
func (b *kdBuilder) claim() bool {
	for {
		n := b.budget.Load()
		if n <= 0 {
			return false
		}
		if b.budget.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// coordLess orders points by (coordinate in dimension sd, index): the
// strict total order that makes median splits deterministic for duplicate
// coordinates.
func (b *kdBuilder) coordLess(p, q int32, sd int) bool {
	vp, vq := b.x[p][sd], b.x[q][sd]
	if vp != vq {
		return vp < vq
	}
	return p < q
}

// selectNth partially sorts idx[lo:hi] so that idx[nth] holds the element
// of rank nth under coordLess, everything before is <= and everything after
// is >=. Deterministic median-of-three quickselect, mirroring the graph
// package's selectK.
func (b *kdBuilder) selectNth(lo, hi, nth int32, sd int) {
	hi-- // inclusive
	for lo < hi {
		p := b.partition(lo, hi, sd)
		switch {
		case p == nth:
			return
		case p > nth:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
}

func (b *kdBuilder) partition(lo, hi int32, sd int) int32 {
	idx := b.t.idx
	mid := lo + (hi-lo)/2
	if b.coordLess(idx[mid], idx[lo], sd) {
		idx[mid], idx[lo] = idx[lo], idx[mid]
	}
	if b.coordLess(idx[hi], idx[mid], sd) {
		idx[hi], idx[mid] = idx[mid], idx[hi]
		if b.coordLess(idx[mid], idx[lo], sd) {
			idx[mid], idx[lo] = idx[lo], idx[mid]
		}
	}
	idx[mid], idx[hi] = idx[hi], idx[mid]
	pv := idx[hi]
	store := lo
	for i := lo; i < hi; i++ {
		if b.coordLess(idx[i], pv, sd) {
			idx[store], idx[i] = idx[i], idx[store]
			store++
		}
	}
	idx[store], idx[hi] = idx[hi], idx[store]
	return store
}

// gap2 is the squared distance from v to the interval [lo, hi] (zero
// inside it).
func gap2(v, lo, hi float64) float64 {
	if d := lo - v; d > 0 {
		return d * d
	}
	if d := v - hi; d > 0 {
		return d * d
	}
	return 0
}

// boxDist2 is the squared distance from q to the node's bounding box (zero
// inside the box), summed in dimension order.
func (t *KDTree) boxDist2(node int, q []float64) float64 {
	boxMin := t.boxMin[node*t.dim : (node+1)*t.dim]
	boxMax := t.boxMax[node*t.dim : (node+1)*t.dim]
	var s float64
	for j, v := range q {
		s += gap2(v, boxMin[j], boxMax[j])
	}
	return s
}

// kdCand is one candidate in the bounded priority queue.
type kdCand struct {
	d2  float64
	idx int32
}

// worseThan orders candidates by (d², index) descending-priority: a is
// worse than b when it is farther, or equally far with a larger index.
func (a kdCand) worseThan(b kdCand) bool {
	if a.d2 != b.d2 {
		return a.d2 > b.d2
	}
	return a.idx > b.idx
}

// kdHeap is a fixed-capacity max-heap under worseThan; the root is the
// worst retained candidate.
type kdHeap struct {
	cand []kdCand
	cap  int
}

func (h *kdHeap) full() bool { return len(h.cand) == h.cap }

func (h *kdHeap) worst() kdCand { return h.cand[0] }

func (h *kdHeap) push(c kdCand) {
	if len(h.cand) < h.cap {
		h.cand = append(h.cand, c)
		i := len(h.cand) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !h.cand[i].worseThan(h.cand[parent]) {
				break
			}
			h.cand[i], h.cand[parent] = h.cand[parent], h.cand[i]
			i = parent
		}
		return
	}
	if !h.worst().worseThan(c) {
		return // c does not beat the current worst
	}
	h.cand[0] = c
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		w := i
		if l < len(h.cand) && h.cand[l].worseThan(h.cand[w]) {
			w = l
		}
		if r < len(h.cand) && h.cand[r].worseThan(h.cand[w]) {
			w = r
		}
		if w == i {
			return
		}
		h.cand[i], h.cand[w] = h.cand[w], h.cand[i]
		i = w
	}
}

// KNNQuery holds reusable state for repeated single-point k-NN lookups
// against one tree — the graph build's per-point queries and the serving
// hot path, where a per-call allocation would dominate small queries. A
// KNNQuery may be used by one goroutine at a time; concurrent queries each
// need their own.
type KNNQuery struct {
	t *KDTree
	h kdHeap
	// gap2 holds, per dimension, the squared distance from the query to
	// the region of the node being visited; a descent replaces only the
	// parent's split dimension, so sum(gap2) is an O(1)-maintained lower
	// bound on the distance to every point below (Arya and Mount's
	// incremental distance). It is looser than the child's exact box
	// distance but costs one term instead of d.
	gap2 []float64
	d2   [kdLeafSize]float64 // leaf distances
}

// NewKNNQuery prepares reusable query state selecting the k nearest points.
// The candidate heap holds min(k, N) entries: no query can retain more
// points than the tree indexes.
func (t *KDTree) NewKNNQuery(k int) *KNNQuery {
	k = max(0, min(k, t.N()))
	return &KNNQuery{
		t:    t,
		h:    kdHeap{cand: make([]kdCand, 0, k), cap: k},
		gap2: make([]float64, t.dim),
	}
}

// WorstDist2 returns the squared distance of the worst candidate the last
// Do retained — the k-th nearest distance when the query found k points —
// or -1 when the last query retained nothing. Every point NOT selected by
// the last Do lies at squared distance >= WorstDist2 under the strict
// (d², index) order, which makes it the anchor of computable residual-mass
// bounds for truncated kernel sums.
func (q *KNNQuery) WorstDist2() float64 {
	if len(q.h.cand) == 0 {
		return -1
	}
	return q.h.worst().d2
}

// Do appends to buf the k nearest indexed points to pt under the strict
// order (squared distance, index), excluding the point with index self
// (pass self < 0 to exclude nothing), and returns the extended slice. With
// maxD2 >= 0 only points at squared distance <= maxD2 qualify, matching an
// ε-ball pre-filter. Fewer than k points are returned when the qualifying
// set is smaller. The result is sorted ascending by index; Do does not
// allocate beyond growing buf.
//
// The selected set is uniquely determined by the order, so it is identical
// to brute-force selection over all points regardless of traversal order.
func (q *KNNQuery) Do(pt []float64, self int32, maxD2 float64, buf []int32) []int32 {
	t := q.t
	if len(pt) != t.dim {
		panic(ErrParam)
	}
	q.h.cand = q.h.cand[:0]
	if q.h.cap == 0 {
		return buf
	}
	var lb float64
	for j, v := range pt {
		q.gap2[j] = gap2(v, t.boxMin[j], t.boxMax[j])
		lb += q.gap2[j]
	}
	q.visit(0, pt, self, maxD2, lb)
	start := len(buf)
	for _, c := range q.h.cand {
		buf = append(buf, c.idx)
	}
	slices.Sort(buf[start:])
	return buf
}

// visit descends into node, whose region lies at squared distance at least
// lb = sum(q.gap2) from pt.
func (q *KNNQuery) visit(node int, pt []float64, self int32, maxD2, lb float64) {
	t := q.t
	if t.leaf(node) {
		lo := int(t.lo[node])
		d2 := q.d2[:int(t.hi[node])-lo]
		kernel.Dist2Rows(pt, t.rows[lo:int(t.hi[node])], d2)
		for i, dd := range d2 {
			c := kdCand{d2: dd, idx: t.idx[lo+i]}
			if c.idx == self || (maxD2 >= 0 && dd > maxD2) ||
				(q.h.full() && !q.h.worst().worseThan(c)) {
				continue
			}
			q.h.push(c)
		}
		return
	}
	sd := int(t.split[node])
	first, second := 2*node+1, 2*node+2
	old := q.gap2[sd]
	gf := gap2(pt[sd], t.boxMin[first*t.dim+sd], t.boxMax[first*t.dim+sd])
	gs := gap2(pt[sd], t.boxMin[second*t.dim+sd], t.boxMax[second*t.dim+sd])
	if gs < gf {
		first, second, gf, gs = second, first, gs, gf
	}
	if lf := lb - old + gf; q.visitable(lf, maxD2) {
		q.gap2[sd] = gf
		q.visit(first, pt, self, maxD2, lf)
	}
	if ls := lb - old + gs; q.visitable(ls, maxD2) {
		q.gap2[sd] = gs
		q.visit(second, pt, self, maxD2, ls)
	}
	q.gap2[sd] = old
}

// visitable reports whether a subtree at squared distance at least lb can
// still contribute a candidate. Equality with the current worst must
// descend (a tied point with a smaller index wins the tie-break), hence
// the strict comparison, padded against rounding in the bound.
func (q *KNNQuery) visitable(lb, maxD2 float64) bool {
	if maxD2 >= 0 && lb > maxD2*(1+prunePad) {
		return false
	}
	return !q.h.full() || !(lb > q.h.worst().d2*(1+prunePad))
}

// Radius appends to buf every indexed point with squared distance <= r2
// from q (excluding self; pass self < 0 to exclude nothing) and returns the
// extended slice, unsorted. The comparison d² <= r2 is exact, so the result
// equals the brute-force scan.
func (t *KDTree) Radius(q []float64, self int32, r2 float64, buf []int32) []int32 {
	if len(q) != t.dim {
		panic(ErrParam)
	}
	if !(r2 >= 0) {
		return buf
	}
	return t.radiusVisit(0, q, self, r2, buf)
}

func (t *KDTree) radiusVisit(node int, q []float64, self int32, r2 float64, buf []int32) []int32 {
	if t.boxDist2(node, q) > r2*(1+prunePad) {
		return buf
	}
	if !t.leaf(node) {
		buf = t.radiusVisit(2*node+1, q, self, r2, buf)
		return t.radiusVisit(2*node+2, q, self, r2, buf)
	}
	lo, hi := int(t.lo[node]), int(t.hi[node])
	var d2 [kdLeafSize]float64
	kernel.Dist2Rows(q, t.rows[lo:hi], d2[:])
	for i, dd := range d2[:hi-lo] {
		if p := t.idx[lo+i]; p != self && dd <= r2 {
			buf = append(buf, p)
		}
	}
	return buf
}
