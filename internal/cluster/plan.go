package cluster

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/sparse"
)

// planTargetChunks fixes how many reduction/preconditioner chunks a system
// is cut into. The chunk layout depends only on the system size m — never on
// the shard count — which is what makes distributed reductions and the
// additive-Schwarz preconditioner bitwise-identical across 1/2/4/8 shards:
// every shard owns whole chunks, per-chunk partial sums are computed in row
// order inside the chunk, and the coordinator folds the partials in global
// chunk order.
const planTargetChunks = 64

// ChunkQuantum returns the fixed chunk size for an m-row system: the
// smallest size that covers m with at most planTargetChunks chunks. It is a
// pure function of m, so two plans over the same system always agree on
// chunk boundaries regardless of shard count.
func ChunkQuantum(m int) int {
	if m < 1 {
		return 1
	}
	return (m + planTargetChunks - 1) / planTargetChunks
}

// Shard is one worker's slice of a Plan: a contiguous range of permuted
// rows (aligned to chunk boundaries), the halo it reads, and the boundary
// it exports.
type Shard struct {
	// Lo and Hi bound the permuted row range [Lo, Hi) this shard owns.
	Lo, Hi int
	// ChunkLo and ChunkHi bound the global chunk indices [ChunkLo, ChunkHi)
	// covered by the block.
	ChunkLo, ChunkHi int
	// Halo lists, ascending, the permuted row indices outside [Lo, Hi)
	// whose values the block's rows read during a matrix-vector product.
	// Halo exchange ships exactly these entries each iteration instead of
	// the full iterate.
	Halo []int
	// Boundary lists, ascending, the block's own rows that appear in some
	// other shard's halo — the entries this shard must export each step.
	Boundary []int
}

// Len returns the shard's row count.
func (sh *Shard) Len() int { return sh.Hi - sh.Lo }

// PlanStats quantifies the quality of a partition.
type PlanStats struct {
	// NNZ is the total stored entry count of the partitioned matrix.
	NNZ int
	// EdgeCut counts stored entries whose row and column land on different
	// shards (each directed entry counted once).
	EdgeCut int
	// NaiveEdgeCut is the edge cut the same chunk assignment would have had
	// without the RCM ordering — the baseline the locality-aware plan is
	// measured against. Equal to EdgeCut when RCM is disabled.
	NaiveEdgeCut int
	// HaloTotal is the summed halo size over shards; MaxHalo the largest
	// single halo.
	HaloTotal, MaxHalo int
	// RCM records whether the reverse Cuthill–McKee ordering was applied.
	RCM bool
}

// Plan is an edge-cut-aware sharding of an m-row symmetric system: rows are
// RCM-reordered so graph neighbourhoods become contiguous, cut into fixed
// chunks (ChunkQuantum), and chunks are dealt to shards in contiguous runs
// balanced by row count. The chunk layout is shard-count independent; only
// the grouping of chunks into shards changes with the shard count.
type Plan struct {
	// M is the system size, Quantum the chunk size, Chunks the chunk count.
	M, Quantum, Chunks int
	// Perm maps permuted to original indices (perm[new] = old); Inv is its
	// inverse (inv[old] = new). Both are identity when RCM is disabled.
	Perm, Inv []int
	// Shards are the per-worker slices, ascending by row range.
	Shards []Shard
	// Stats summarizes partition quality.
	Stats PlanStats
}

// NewPlan partitions the symmetric sparsity structure w into the given
// number of shards. useRCM applies the reverse Cuthill–McKee ordering first
// (recommended: it is what makes contiguous blocks graph-local and halos
// small). The shard count is clamped to the chunk count so no shard is
// empty.
func NewPlan(w *sparse.CSR, shards int, useRCM bool) (*Plan, error) {
	if w == nil {
		return nil, fmt.Errorf("cluster: plan of nil matrix: %w", ErrParam)
	}
	m := w.Rows()
	if m < 1 || w.Cols() != m {
		return nil, fmt.Errorf("cluster: plan of %dx%d matrix: %w", m, w.Cols(), ErrParam)
	}
	if shards < 1 {
		return nil, fmt.Errorf("cluster: plan with %d shards: %w", shards, ErrParam)
	}
	q := ChunkQuantum(m)
	nchunks := (m + q - 1) / q
	if shards > nchunks {
		shards = nchunks
	}

	perm := make([]int, m)
	inv := make([]int, m)
	usedRCM := false
	if useRCM && m > 1 {
		p, err := sparse.RCM(w)
		if err != nil {
			return nil, fmt.Errorf("cluster: plan RCM: %w: %v", ErrParam, err)
		}
		copy(perm, p)
		usedRCM = true
	} else {
		for i := range perm {
			perm[i] = i
		}
	}
	for newIdx, old := range perm {
		inv[old] = newIdx
	}

	// Deal contiguous chunk runs to shards, balancing rows: shard s ends at
	// the first chunk boundary reaching row quota (s+1)*m/shards, while
	// always leaving one chunk for each remaining shard.
	bounds := make([]int, shards+1)
	bounds[shards] = nchunks
	c := 0
	for s := 0; s < shards-1; s++ {
		quota := ((s + 1) * m) / shards
		for c < nchunks-(shards-1-s) && min(c*q, m) < quota {
			c++
		}
		if c <= bounds[s] { // every shard owns at least one chunk
			c = bounds[s] + 1
		}
		bounds[s+1] = c
	}

	plan := &Plan{
		M:       m,
		Quantum: q,
		Chunks:  nchunks,
		Perm:    perm,
		Inv:     inv,
		Shards:  make([]Shard, shards),
		Stats:   PlanStats{NNZ: w.NNZ(), RCM: usedRCM},
	}
	for s := 0; s < shards; s++ {
		plan.Shards[s] = Shard{
			Lo:      min(bounds[s]*q, m),
			Hi:      min(bounds[s+1]*q, m),
			ChunkLo: bounds[s],
			ChunkHi: bounds[s+1],
		}
	}

	// Halos and the edge cut, in permuted space. shardOf is O(log p) via the
	// sorted Lo bounds.
	lows := make([]int, shards)
	for s := range plan.Shards {
		lows[s] = plan.Shards[s].Lo
	}
	shardOf := func(idx int) int {
		return sort.SearchInts(lows, idx+1) - 1
	}
	mark := make([]int, m) // 0 = unmarked; s+1 = in shard s's halo
	var naiveCut int
	for s := range plan.Shards {
		sh := &plan.Shards[s]
		for newRow := sh.Lo; newRow < sh.Hi; newRow++ {
			cols, _ := w.RowNNZ(perm[newRow])
			for _, j := range cols {
				nj := inv[j]
				if nj < sh.Lo || nj >= sh.Hi {
					plan.Stats.EdgeCut++
					if mark[nj] != s+1 {
						mark[nj] = s + 1
						sh.Halo = append(sh.Halo, nj)
					}
				}
			}
		}
		sort.Ints(sh.Halo)
		plan.Stats.HaloTotal += len(sh.Halo)
		if len(sh.Halo) > plan.Stats.MaxHalo {
			plan.Stats.MaxHalo = len(sh.Halo)
		}
	}
	if usedRCM {
		// Same chunk assignment, identity ordering: the baseline cut.
		for i := 0; i < m; i++ {
			s := shardOf(i)
			cols, _ := w.RowNNZ(i)
			for _, j := range cols {
				if j < plan.Shards[s].Lo || j >= plan.Shards[s].Hi {
					naiveCut++
				}
			}
		}
		plan.Stats.NaiveEdgeCut = naiveCut
	} else {
		plan.Stats.NaiveEdgeCut = plan.Stats.EdgeCut
	}

	// Boundaries: invert the halo relation.
	for s := range plan.Shards {
		for _, h := range plan.Shards[s].Halo {
			o := shardOf(h)
			plan.Shards[o].Boundary = append(plan.Shards[o].Boundary, h)
		}
	}
	for s := range plan.Shards {
		b := plan.Shards[s].Boundary
		sort.Ints(b)
		// dedup in place (several shards may read the same boundary row).
		k := 0
		for i, v := range b {
			if i == 0 || v != b[k-1] {
				b[k] = v
				k++
			}
		}
		plan.Shards[s].Boundary = b[:k]
	}
	return plan, nil
}

// entryKV is one matrix entry during block extraction.
type entryKV struct {
	col int
	val float64
}

// sortEntries orders entries by column. Rows are short (graph degree), so
// insertion sort beats sort.Slice and allocates nothing.
func sortEntries(e []entryKV) {
	for i := 1; i < len(e); i++ {
		for j := i; j > 0 && e[j].col < e[j-1].col; j-- {
			e[j], e[j-1] = e[j-1], e[j]
		}
	}
}

// shardBlock is the extracted, locally-indexed slice of A = D − W for one
// shard: rows [Lo, Hi) in the plan's permuted order with the diagonal
// merged, each row's entries sorted by global permuted column — so row sums
// run in a shard-count-independent order, which is half of the
// bitwise-determinism argument — and columns translated to local indexing
// (own entries in [0, rows), halo reads at rows+haloPos), plus the matching
// right-hand side.
type shardBlock struct {
	rowptr []int
	cols   []int
	vals   []float64
	b      []float64
}

// extractShard builds shard s's block of the PCG operator.
func extractShard(sys *core.PropagationSystem, plan *Plan, s int) *shardBlock {
	sh := &plan.Shards[s]
	rows := sh.Len()
	blk := &shardBlock{
		rowptr: make([]int, rows+1),
		b:      make([]float64, rows),
	}
	var scratch []entryKV
	for nr := sh.Lo; nr < sh.Hi; nr++ {
		orig := plan.Perm[nr]
		colsW, valsW := sys.W.RowNNZ(orig)
		scratch = scratch[:0]
		diag := sys.D[orig]
		for c, j := range colsW {
			nj := plan.Inv[j]
			if nj == nr {
				diag -= valsW[c]
				continue
			}
			scratch = append(scratch, entryKV{col: nj, val: -valsW[c]})
		}
		scratch = append(scratch, entryKV{col: nr, val: diag})
		sortEntries(scratch)
		for _, e := range scratch {
			var lc int
			if e.col >= sh.Lo && e.col < sh.Hi {
				lc = e.col - sh.Lo
			} else {
				lc = rows + sort.SearchInts(sh.Halo, e.col)
			}
			blk.cols = append(blk.cols, lc)
			blk.vals = append(blk.vals, e.val)
		}
		r := nr - sh.Lo
		blk.b[r] = sys.B[orig]
		blk.rowptr[r+1] = len(blk.cols)
	}
	return blk
}
