// Package spatial provides an exact spatial index over []float64 point
// sets: a KD-tree for k-nearest-neighbour and fixed-radius queries, and
// SideIndex, a mutable radius index amortized over it.
//
// The tree exists to replace the O(n²) pairwise distance matrix in graph
// construction. It is exact, not approximate: a radius query returns every
// point whose squared distance, computed bitwise as kernel.Dist2 does, is
// at most the squared radius, and a kNN query returns exactly the k
// nearest points under the strict total order (squared distance, point
// index) — the same tie-break the brute-force builders use. Callers
// re-apply their own weight filters to a radius query's points, or take a
// kNN query's squared distances, so a graph built through the tree is
// bitwise-identical to one built from the full distance matrix.
//
// Queries are read-only after construction and safe for concurrent use; the
// graph layer parallelizes per-point queries on top of internal/parallel.
// Results are pure functions of the input point set, never of scheduling.
package spatial

import "errors"

var (
	// ErrEmpty is returned for empty point sets.
	ErrEmpty = errors.New("spatial: empty input")
	// ErrParam is returned for invalid construction or query parameters.
	ErrParam = errors.New("spatial: invalid parameter")
)

// checkPoints validates a point set: non-empty, with a common dimension of
// at least 1. It returns the dimension.
func checkPoints(x [][]float64) (int, error) {
	if len(x) == 0 {
		return 0, ErrEmpty
	}
	dim := len(x[0])
	if dim == 0 {
		return 0, ErrParam
	}
	for _, xi := range x {
		if len(xi) != dim {
			return 0, ErrParam
		}
	}
	return dim, nil
}
