package graph

// The coverage decision without the graph. A hard-criterion fit is defined
// exactly when every connected component holds a labeled node, and in the
// regime of the paper's Theorem II.1 (n h_n^d → ∞) almost every unlabeled
// node has a labeled node within h, so the answer is mostly local: a
// direct check per node finds a labeled neighbour, and a breadth-first
// search over positive-weight edges settles the few nodes it leaves.

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/kernel"
	"repro/internal/parallel"
	"repro/internal/spatial"
)

// Covered reports whether every connected component of the graph Build
// would make over x holds a node marked in isLabeled (len(x) entries),
// as Build followed by ComponentLabels would tell, without building the
// graph. It takes the same index rule as Build and tests every edge by the
// weight Build would store, WeightDist2 of the same Dist2, positive, within
// the radius h on the KD-tree path, so Gaussian weights that underflow cut
// edges here as there.
//
// A node with a labeled neighbour is covered: on the KD-tree path a 1-NN
// query bounded by h on a tree over the labeled points finds it, otherwise
// a scan over the labeled points that stops at the first positive weight. A
// node left over is covered if a breadth-first search over positive-weight
// edges reaches a covered node, and a search that exhausts its component
// answers false. Searched nodes stay settled for later searches, so no node
// is expanded twice.
//
// A build with k-NN fails with ErrParam: a k-NN edge depends on both
// endpoints' selections, so no local test decides it.
func (b *Builder) Covered(x [][]float64, isLabeled []bool) (bool, error) {
	if b.knn > 0 {
		return false, fmt.Errorf("graph: coverage decision of a k-NN build: %w", ErrParam)
	}
	dim, err := checkDims(x)
	if err != nil {
		return false, err
	}
	if len(isLabeled) != len(x) {
		return false, fmt.Errorf("graph: %d labeled flags for %d points: %w", len(isLabeled), len(x), ErrParam)
	}
	kind, err := b.resolveIndex(len(x), dim)
	if err != nil {
		return false, err
	}
	c := &coverage{b: b, x: x, covered: make([]bool, len(x)), r2: math.Inf(1)}
	var labeled []int
	for i, l := range isLabeled {
		if l {
			labeled = append(labeled, i)
			c.covered[i] = true
		}
	}
	if len(labeled) == 0 {
		return false, nil
	}
	if kind == IndexKDTree {
		h := b.kernel.Bandwidth()
		c.r2, c.tree = h*h, true
		err = c.directTree(labeled)
	} else {
		c.directScan(labeled)
	}
	if err != nil {
		return false, err
	}
	return c.search()
}

// coverage is one decision's state: covered[i] is set once node i is known
// to reach a labeled node.
type coverage struct {
	b       *Builder
	x       [][]float64
	covered []bool
	r2      float64 // the squared radius an edge must lie within; +Inf off the tree path
	tree    bool    // Build would take the KD-tree path
}

// edge reports whether Build would store an edge at squared distance d2.
func (c *coverage) edge(d2 float64) bool {
	return d2 <= c.r2 && c.b.kernel.WeightDist2(d2) > 0
}

// directTree covers each unlabeled node whose nearest labeled node within
// h, by a 1-NN query on a tree over the labeled points, has positive
// weight. The leaf scan's distance is bitwise kernel.Dist2, so the weight
// is the one the graph would store. A nearest labeled node of zero weight
// leaves the node to the search, which tests every neighbour.
func (c *coverage) directTree(labeled []int) error {
	xl := make([][]float64, len(labeled))
	for k, l := range labeled {
		xl[k] = c.x[l]
	}
	t, err := spatial.NewKDTree(xl, c.b.workers)
	if err != nil {
		return fmt.Errorf("graph: kd-tree index: %w", err)
	}
	parallel.For(c.b.workers, len(c.x), func(lo, hi int) {
		q := t.NewKNNQuery(1)
		var buf []int32
		for i := lo; i < hi; i++ {
			if c.covered[i] {
				continue
			}
			buf = q.Do(c.x[i], -1, c.r2, buf[:0])
			if d2 := q.WorstDist2(); d2 >= 0 && c.edge(d2) {
				c.covered[i] = true
			}
		}
	})
	return nil
}

// directScan covers each unlabeled node with a labeled node of positive
// weight, scanning the labeled nodes until the first one.
func (c *coverage) directScan(labeled []int) {
	parallel.For(c.b.workers, len(c.x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if c.covered[i] {
				continue
			}
			for _, l := range labeled {
				if c.edge(kernel.Dist2(c.x[i], c.x[l])) {
					c.covered[i] = true
					break
				}
			}
		}
	})
}

// search runs a breadth-first search from each node still uncovered, in
// ascending order, until an expansion meets a covered node; then every
// node it reached, the whole neighbourhood of that last expansion
// included, is covered. A search that exhausts its component answers
// false.
//
// An expansion scans every node, until on the KD-tree path more than
// log2(n) have: then a tree over all points is built and its radius
// queries expand the rest. A few searches, the Theorem II.1 regime, cost a
// few scans; many cost one tree build, as the graph would.
func (c *coverage) search() (bool, error) {
	n := len(c.x)
	reached := make([]bool, n) // nodes some search has reached
	var (
		t     *spatial.KDTree
		queue []int
		ball  []int32
		scans int
	)
	for s := range n {
		if c.covered[s] {
			continue
		}
		queue = append(queue[:0], s)
		reached[s] = true
		found := false
		for h := 0; h < len(queue) && !found; h++ {
			u := queue[h]
			visit := func(v int) {
				if !c.edge(kernel.Dist2(c.x[u], c.x[v])) {
					return
				}
				if c.covered[v] {
					found = true
				} else if !reached[v] {
					reached[v] = true
					queue = append(queue, v)
				}
			}
			if c.tree && t == nil && scans > bits.Len(uint(n)) {
				var err error
				if t, err = spatial.NewKDTree(c.x, c.b.workers); err != nil {
					return false, fmt.Errorf("graph: kd-tree index: %w", err)
				}
			}
			if t != nil {
				ball = t.Radius(c.x[u], int32(u), c.r2, ball[:0])
				for _, v := range ball {
					visit(int(v))
				}
				continue
			}
			scans++
			for v := range n {
				if v != u {
					visit(v)
				}
			}
		}
		if !found {
			return false, nil
		}
		for _, v := range queue {
			c.covered[v] = true
		}
	}
	return true, nil
}
