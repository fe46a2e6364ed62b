package sparse

import (
	"slices"
	"sort"
)

// This file implements reverse Cuthill–McKee (RCM) bandwidth-reducing
// reordering and the symmetric permutation machinery the preconditioned
// solve path wraps around it. Everything here is deterministic: BFS
// frontiers expand in (degree, index) order, tie-breaks are by node index,
// and component roots are minimum-degree (then minimum-index), so one
// matrix always yields one permutation.

// RCM computes a reverse Cuthill–McKee ordering of a square matrix's
// adjacency structure, returning perm with perm[new] = old. Applying it
// symmetrically (Permute) clusters each row's neighbours near the diagonal,
// which shrinks the profile an IC(0) factor works over and improves SpMV
// cache locality. Disconnected graphs are handled per component; diagonal
// entries are ignored as self-loops.
func RCM(a *CSR) ([]int, error) {
	n := a.rows
	if a.cols != n {
		return nil, ErrShape
	}
	perm := make([]int, 0, n)
	visited := make([]bool, n)
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		cols, _ := a.RowNNZ(i)
		d := 0
		for _, j := range cols {
			if j != i {
				d++
			}
		}
		deg[i] = d
	}

	// scratch queue for BFS layering.
	queue := make([]int, 0, n)
	frontier := make([]int, 0, 16)

	// bfs runs a Cuthill–McKee breadth-first sweep from root, appending
	// visited nodes to perm in (layer, degree, index) order, and returns the
	// nodes appended (as a sub-slice of perm) plus the last layer reached.
	bfs := func(root int) (int, int) {
		start := len(perm)
		visited[root] = true
		perm = append(perm, root)
		depth := 0
		for lo := start; lo < len(perm); {
			hi := len(perm)
			for _, u := range perm[lo:hi] {
				frontier = frontier[:0]
				cols, _ := a.RowNNZ(u)
				for _, v := range cols {
					if v != u && !visited[v] {
						visited[v] = true
						frontier = append(frontier, v)
					}
				}
				// Ascending (degree, index): CSR rows are index-sorted, so a
				// stable sort by degree yields the deterministic total order.
				sort.SliceStable(frontier, func(x, y int) bool {
					return deg[frontier[x]] < deg[frontier[y]]
				})
				perm = append(perm, frontier...)
			}
			if len(perm) > hi {
				depth++
			}
			lo = hi
		}
		return start, depth
	}

	for root := 0; root < n; root++ {
		if visited[root] {
			continue
		}
		// Component root: minimum degree, then minimum index — a cheap
		// deterministic stand-in for a pseudo-peripheral vertex. One
		// George–Liu refinement pass: BFS, restart from a min-degree node of
		// the deepest layer if that increases eccentricity.
		compRoot := root
		queue = queue[:0]
		queue = append(queue, root)
		visited[root] = true
		for qi := 0; qi < len(queue); qi++ {
			cols, _ := a.RowNNZ(queue[qi])
			for _, v := range cols {
				if v != queue[qi] && !visited[v] {
					visited[v] = true
					queue = append(queue, v)
				}
			}
		}
		for _, v := range queue {
			visited[v] = false
			if deg[v] < deg[compRoot] || (deg[v] == deg[compRoot] && v < compRoot) {
				compRoot = v
			}
		}

		start, depth := bfs(compRoot)
		// Refinement: try the min-degree node of the last BFS layer; keep the
		// deeper of the two orderings (deterministic: strict improvement).
		last := lastLayerMinDegree(a, deg, perm[start:], compRoot)
		if last != compRoot {
			for _, v := range perm[start:] {
				visited[v] = false
			}
			perm = perm[:start]
			_, depth2 := bfs(last)
			if depth2 < depth {
				for _, v := range perm[start:] {
					visited[v] = false
				}
				perm = perm[:start]
				bfs(compRoot)
			}
		}
		// Reverse the component's Cuthill–McKee order in place.
		for i, j := start, len(perm)-1; i < j; i, j = i+1, j-1 {
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	return perm, nil
}

// lastLayerMinDegree returns the minimum-degree (then minimum-index) node of
// the final BFS layer from root over the component nodes comp.
func lastLayerMinDegree(a *CSR, deg []int, comp []int, root int) int {
	level := make(map[int]int, len(comp))
	level[root] = 0
	queue := []int{root}
	maxLevel := 0
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		cols, _ := a.RowNNZ(u)
		for _, v := range cols {
			if v == u {
				continue
			}
			if _, ok := level[v]; !ok {
				level[v] = level[u] + 1
				if level[v] > maxLevel {
					maxLevel = level[v]
				}
				queue = append(queue, v)
			}
		}
	}
	best := root
	for _, v := range queue {
		if level[v] != maxLevel {
			continue
		}
		if best == root || deg[v] < deg[best] || (deg[v] == deg[best] && v < best) {
			best = v
		}
	}
	return best
}

// InvertPerm returns the inverse permutation: inv[perm[i]] = i.
func InvertPerm(perm []int) []int {
	inv := make([]int, len(perm))
	for i, p := range perm {
		inv[p] = i
	}
	return inv
}

// validPerm reports whether perm is a permutation of [0, n).
func validPerm(perm []int, n int) bool {
	if len(perm) != n {
		return false
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

// Permute returns the symmetric permutation B = P A Pᵀ with
// B[i][j] = A[perm[i]][perm[j]]. perm must be a permutation of [0, rows);
// the matrix must be square.
func (m *CSR) Permute(perm []int) (*CSR, error) {
	n := m.rows
	if m.cols != n {
		return nil, ErrShape
	}
	if !validPerm(perm, n) {
		return nil, ErrIndex
	}
	inv := InvertPerm(perm)
	nnz := m.NNZ()
	indptr := make([]int, n+1)
	indices := make([]int, nnz)
	data := make([]float64, nnz)
	var row []entry
	at := 0
	for i := 0; i < n; i++ {
		old := perm[i]
		lo, hi := m.indptr[old], m.indptr[old+1]
		row = row[:0]
		for k := lo; k < hi; k++ {
			row = append(row, entry{col: inv[m.indices[k]], v: m.data[k]})
		}
		slices.SortFunc(row, cmpCol)
		for _, e := range row {
			indices[at] = e.col
			data[at] = e.v
			at++
		}
		indptr[i+1] = at
	}
	return &CSR{rows: n, cols: n, indptr: indptr, indices: indices, data: data}, nil
}

// Bandwidth returns the matrix bandwidth max_i,j |i−j| over stored entries
// (0 for diagonal or empty matrices).
func (m *CSR) Bandwidth() int {
	bw := 0
	for i := 0; i < m.rows; i++ {
		lo, hi := m.indptr[i], m.indptr[i+1]
		for k := lo; k < hi; k++ {
			d := m.indices[k] - i
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}

// PermuteVecTo writes dst[i] = src[perm[i]] — the vector counterpart of
// Permute (dst = P src). dst must not alias src.
func PermuteVecTo(dst, src []float64, perm []int) {
	for i, p := range perm {
		dst[i] = src[p]
	}
}

// UnpermuteVecTo writes dst[perm[i]] = src[i] — the inverse of
// PermuteVecTo (dst = Pᵀ src). dst must not alias src.
func UnpermuteVecTo(dst, src []float64, perm []int) {
	for i, p := range perm {
		dst[p] = src[i]
	}
}
