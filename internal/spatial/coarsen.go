package spatial

import "repro/internal/kernel"

// Coarsening is a partition of the indexed points into contiguous KD-tree
// aggregates, with one representative point per aggregate. It is the
// spatial half of the Nyström anchor pipeline: representatives become the
// anchor subset, and the aggregate structure feeds the multilevel
// preconditioner's prolongation.
type Coarsening struct {
	// Assign maps point index -> aggregate id. Aggregate ids are dense,
	// 0..len(Reps)-1, numbered in depth-first (left before right) tree
	// order, so they are a pure function of the point set.
	Assign []int32
	// Reps maps aggregate id -> index of the member point closest to the
	// aggregate centroid under the strict (squared distance, index) order.
	Reps []int32
	// Sizes maps aggregate id -> member count.
	Sizes []int32
}

// Coarsen cuts the tree at the highest nodes holding at most maxSize
// points and returns the induced partition. Every aggregate is a box of
// the KD construction, so members are spatially contiguous; because node
// sizes shrink monotonically down the tree, the partitions for growing
// maxSize thresholds nest (each aggregate at a smaller threshold lies
// inside exactly one aggregate at any larger threshold) — the property
// the multilevel hierarchy is built on.
//
// Leaves are never split, so aggregates can reach the leaf capacity even
// when maxSize is smaller. The result is deterministic: the tree layout
// is a pure function of the points, and representatives are chosen by
// exact (d², index) comparisons against the centroid.
func (t *KDTree) Coarsen(maxSize int) *Coarsening {
	if maxSize < 1 {
		maxSize = 1
	}
	c := &Coarsening{Assign: make([]int32, t.N())}
	t.coarsenVisit(0, maxSize, c)
	return c
}

func (t *KDTree) coarsenVisit(node, maxSize int, c *Coarsening) {
	lo, hi := t.lo[node], t.hi[node]
	if int(hi-lo) > maxSize && !t.leaf(node) {
		t.coarsenVisit(2*node+1, maxSize, c)
		t.coarsenVisit(2*node+2, maxSize, c)
		return
	}
	id := int32(len(c.Reps))
	for _, p := range t.idx[lo:hi] {
		c.Assign[p] = id
	}
	c.Reps = append(c.Reps, t.centroidRep(t.idx[lo:hi], t.rows[lo:hi]))
	c.Sizes = append(c.Sizes, hi-lo)
}

// centroidRep returns the member closest to the members' centroid under
// the strict (squared distance, index) order; rows[i] holds members[i].
func (t *KDTree) centroidRep(members []int32, rows [][]float64) int32 {
	if len(members) == 1 {
		return members[0]
	}
	cen := make([]float64, t.dim)
	for _, row := range rows {
		for j, v := range row {
			cen[j] += v
		}
	}
	inv := 1 / float64(len(members))
	for j := range cen {
		cen[j] *= inv
	}
	best := members[0]
	bestD2 := kernel.Dist2(cen, rows[0])
	for i, p := range members[1:] {
		d2 := kernel.Dist2(cen, rows[i+1])
		if d2 < bestD2 || (d2 == bestD2 && p < best) {
			best, bestD2 = p, d2
		}
	}
	return best
}
