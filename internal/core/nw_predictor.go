package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/kernel"
	"repro/internal/parallel"
	"repro/internal/spatial"
)

// nwPath selects how a predictor finds the anchors worth evaluating for a
// query point.
type nwPath uint8

const (
	// nwBrute scans every anchor (the Gaussian kernel, or small/high-dim
	// anchor sets).
	nwBrute nwPath = iota
	// nwRadius takes the KD-tree's ball of the kernel support (compact
	// kernels, dim <= 16).
	nwRadius
	// nwKNN restricts each query to its k nearest anchors (k-NN-built
	// fits, or serving-side top-m truncation).
	nwKNN
)

// String names the lookup path for diagnostics and the serving API.
func (p nwPath) String() string {
	switch p {
	case nwRadius:
		return "kdtree"
	case nwKNN:
		return "knn"
	default:
		return "brute"
	}
}

// NWPredictor is the frozen, inductive form of the paper's Eq. 6 estimator:
// a fixed set of anchor points with values, a kernel, and a spatial-lookup
// rule. Predict evaluates
//
//	f(x*) = Σ_j K_h(x*, X_j) v_j / Σ_j K_h(x*, X_j)
//
// over the anchors — Theorem II.1's Nadaraya–Watson form, which the
// hard-criterion solution converges to, extended to arbitrary query points.
// When the anchors are the labeled points in ascending node order with knn
// = 0, Predict at an in-sample unlabeled point is bitwise-identical to
// NadarayaWatson on a default-built graph: the accumulation runs in
// ascending anchor order with zero weights skipped, distances come from the
// shared bitwise-stable kernels, and the spatial indexes only prune exact
// zeros. With knn > 0 each query instead adopts its own k nearest anchors
// under the strict (distance, index) order — the inductive analogue of a
// k-NN-sparsified graph (the transductive graph symmetrizes neighbour sets
// across points, which has no out-of-sample counterpart).
//
// Every lookup path streams its distance evaluations through the multi-row
// SIMD kernel (kernel.Dist2Rows) in blocks of nwTileA anchors. The kernel's
// entries are bitwise-identical to per-pair kernel.Dist2 calls and the
// weighted accumulation still runs one anchor at a time in ascending order,
// so vectorization changes throughput, never bits — the same contract the
// pairwise-distance layer has kept since the parallel substrate landed.
//
// A predictor is immutable after construction and safe for concurrent use;
// per-goroutine mutable state lives in NWScratch (pooled internally, so
// passing a nil scratch stays allocation-free once warm).
type NWPredictor struct {
	dim  int
	k    *kernel.K
	x    [][]float64 // anchors, in accumulation order
	v    []float64   // anchor values, aligned with x
	knn  int
	path nwPath
	tree *spatial.KDTree // nwRadius and nwKNN
	r2   float64         // nwRadius: squared support radius

	pool sync.Pool // *NWScratch
}

// nwMinIndexAnchors is the minimum anchor count before a compact-support
// predictor builds a spatial index; below it the brute scan is already
// cheap. The indexes prune only exact zeros, so the cutoff trades index
// build time against scan time and never changes an estimate.
const nwMinIndexAnchors = 64

// NewNWPredictor freezes an inductive estimator over the given anchors and
// aligned values. Accumulation runs in the order anchors are passed, so
// callers wanting parity with the graph estimators must pass them in
// ascending node order. knn > 0 restricts each query to its k nearest
// anchors; knn = 0 uses the kernel's full support. The anchor slices are
// retained, not copied; callers must not mutate them afterwards. workers
// bounds index-construction parallelism only (queries are always
// deterministic).
func NewNWPredictor(anchors [][]float64, values []float64, k *kernel.K, knn, workers int) (*NWPredictor, error) {
	if k == nil {
		return nil, fmt.Errorf("core: nil kernel: %w", ErrParam)
	}
	if len(anchors) == 0 {
		return nil, fmt.Errorf("core: no anchor points: %w", ErrParam)
	}
	if len(values) != len(anchors) {
		return nil, fmt.Errorf("core: %d anchors but %d values: %w", len(anchors), len(values), ErrParam)
	}
	dim := len(anchors[0])
	if dim == 0 {
		return nil, fmt.Errorf("core: zero-dimensional anchors: %w", ErrParam)
	}
	for i, a := range anchors {
		if len(a) != dim {
			return nil, fmt.Errorf("core: anchor %d has dim %d, want %d: %w", i, len(a), dim, ErrParam)
		}
	}
	if knn < 0 {
		return nil, fmt.Errorf("core: knn=%d: %w", knn, ErrParam)
	}
	p := &NWPredictor{dim: dim, k: k, x: anchors, v: values, knn: knn, path: nwBrute}
	if knn > 0 && len(anchors) > knn {
		t, err := spatial.NewKDTree(anchors, workers)
		if err != nil {
			return nil, fmt.Errorf("core: nw kd-tree index: %w", err)
		}
		p.path, p.tree = nwKNN, t
		return p, nil
	}
	if h := k.Bandwidth(); knn == 0 && k.Kind().CompactSupport() && len(anchors) >= nwMinIndexAnchors && dim <= 16 {
		t, err := spatial.NewKDTree(anchors, workers)
		if err != nil {
			return nil, fmt.Errorf("core: nw kd-tree index: %w", err)
		}
		p.path, p.tree, p.r2 = nwRadius, t, h*h
	}
	return p, nil
}

// AppendAnchors returns a new predictor extending this one with extra
// anchors (and aligned values) at the end of the accumulation order. The
// receiver is unchanged and remains valid; the two predictors share the
// existing anchor storage, and the result is exactly what NewNWPredictor
// would build from the concatenated slices — same kernel, same knn, same
// lookup-path resolution — so predictions match that from-scratch build
// bitwise. The extra slices are retained, not copied.
func (p *NWPredictor) AppendAnchors(extra [][]float64, values []float64, workers int) (*NWPredictor, error) {
	if len(extra) == 0 {
		return p, nil
	}
	if len(values) != len(extra) {
		return nil, fmt.Errorf("core: %d extra anchors but %d values: %w", len(extra), len(values), ErrParam)
	}
	x := make([][]float64, 0, len(p.x)+len(extra))
	x = append(append(x, p.x...), extra...)
	v := make([]float64, 0, len(p.v)+len(values))
	v = append(append(v, p.v...), values...)
	return NewNWPredictor(x, v, p.k, p.knn, workers)
}

// NumAnchors returns the anchor count.
func (p *NWPredictor) NumAnchors() int { return len(p.x) }

// Path names the anchor-lookup route this predictor resolved to: "brute",
// "kdtree" (the compact kernel's support ball), or "knn" (top-k
// truncation).
func (p *NWPredictor) Path() string { return p.path.String() }

// NWScratch holds the per-goroutine mutable state of repeated predictions:
// the candidate buffer, the SIMD gather/distance tiles, and, for k-NN
// predictors, the reusable bounded priority queue. One scratch serves one
// goroutine at a time.
type NWScratch struct {
	buf  []int32
	knnq *spatial.KNNQuery
	rows [nwTileA][]float64 // gather tile for candidate-path SIMD blocks
	d2   [nwTileA]float64   // distance tile shared by all per-point paths

	// Diagnostics of the most recent prediction made with this scratch.
	pruned int     // anchors skipped without a distance evaluation
	bound  float64 // truncation residual-mass bound (0 = exact)
}

// NewScratch allocates prediction scratch sized for this predictor.
func (p *NWPredictor) NewScratch() *NWScratch {
	s := &NWScratch{}
	if p.path == nwKNN {
		s.knnq = p.tree.NewKNNQuery(p.knn)
	}
	return s
}

// GetScratch returns a pooled scratch (allocating only when the pool is
// empty). Pair with PutScratch to keep warm per-point prediction loops at
// zero heap allocations.
func (p *NWPredictor) GetScratch() *NWScratch {
	if s, ok := p.pool.Get().(*NWScratch); ok {
		return s
	}
	return p.NewScratch()
}

// PutScratch returns a scratch obtained from GetScratch to the pool.
func (p *NWPredictor) PutScratch(s *NWScratch) {
	if s != nil {
		p.pool.Put(s)
	}
}

// LastStats reports diagnostics of the most recent prediction made through
// this scratch: how many anchors the spatial index pruned (or the top-k
// truncation skipped) without evaluating a distance, and the residual-mass
// bound of that truncation. For the exact paths — brute and KD-tree radius,
// whose skipped anchors provably carry zero kernel weight — the bound is
// exactly 0. For the k-NN path the bound is
//
//	R / (den + R),   R = (N − m) · K_h(d_m),
//
// where d_m is the m-th nearest-anchor distance and den the selected kernel
// mass: every skipped anchor is at distance >= d_m, kernel profiles are
// non-increasing, so R bounds the skipped mass and the reported value
// bounds the fraction of total kernel mass the truncation can have
// discarded. |f_trunc − f_full| <= bound · max_j |v_j − f_trunc|.
func (s *NWScratch) LastStats() (pruned int, residualBound float64) {
	return s.pruned, s.bound
}

// NWStatus reports the outcome of one batched prediction.
type NWStatus uint8

const (
	// NWOK marks a well-defined estimate.
	NWOK NWStatus = iota
	// NWBadDim marks a query whose dimension does not match the anchors.
	NWBadDim
	// NWIsolated marks a query with zero similarity mass to every
	// (selected) anchor, where the estimator is undefined.
	NWIsolated
)

// NWBatchStats aggregates pruning diagnostics across one batched
// prediction. Counters are summed atomically, so one stats value can be
// shared across worker chunks (and across batches, for long-lived meters).
type NWBatchStats struct {
	// AnchorsPruned counts anchors skipped without a distance evaluation,
	// summed over all points of the batch.
	AnchorsPruned int64
}

// Predict evaluates the estimator at one query point. It returns ErrParam
// for a dimension mismatch and ErrIsolated when the query has zero
// similarity mass to every anchor. scratch may be nil (one is borrowed from
// the predictor's pool); passing one amortizes lookups across calls and
// exposes LastStats.
func (p *NWPredictor) Predict(q []float64, scratch *NWScratch) (float64, error) {
	if len(q) != p.dim {
		return 0, fmt.Errorf("core: query has dim %d, want %d: %w", len(q), p.dim, ErrParam)
	}
	if scratch == nil {
		scratch = p.GetScratch()
		defer p.PutScratch(scratch)
	}
	val, ok := p.predictOne(q, scratch)
	if !ok {
		return 0, fmt.Errorf("core: query point has no anchor within kernel support: %w", ErrIsolated)
	}
	return val, nil
}

// predictOne evaluates one dimension-checked query; ok = false means
// isolated.
func (p *NWPredictor) predictOne(q []float64, s *NWScratch) (float64, bool) {
	var num, den float64
	s.pruned, s.bound = 0, 0
	switch p.path {
	case nwBrute:
		num, den = p.bruteOne(q, s)
	case nwRadius:
		s.buf = p.tree.Radius(q, -1, p.r2, s.buf[:0])
		s.pruned = len(p.x) - len(s.buf)
		num, den = p.accumulate(q, s.buf, true, s)
	case nwKNN:
		s.buf = s.knnq.Do(q, -1, -1, s.buf[:0])
		s.pruned = len(p.x) - len(s.buf)
		num, den = p.accumulate(q, s.buf, false, s)
		if s.pruned > 0 {
			if worst := s.knnq.WorstDist2(); worst >= 0 {
				if r := float64(s.pruned) * p.k.WeightDist2(worst); r > 0 && den+r > 0 {
					s.bound = r / (den + r)
				}
			}
		}
	}
	if den == 0 {
		return 0, false
	}
	return num / den, true
}

// bruteOne is the full anchor scan of one query, streamed through the
// multi-row SIMD distance kernel in blocks of nwTileA rows (the anchor
// slice is contiguous, so no gather is needed). Per-anchor accumulation
// order and arithmetic match the historical scalar scan exactly, so the
// result is bitwise-identical on every backend.
func (p *NWPredictor) bruteOne(q []float64, s *NWScratch) (num, den float64) {
	nA := len(p.x)
	nBlk := nA - nA%nwTileA
	for a := 0; a < nBlk; a += nwTileA {
		kernel.Dist2Rows(q, p.x[a:a+nwTileA], s.d2[:])
		vals := p.v[a : a+nwTileA]
		for r, dd := range s.d2 {
			w := p.k.WeightDist2(dd)
			if w > 0 {
				num += w * vals[r]
				den += w
			}
		}
	}
	for a := nBlk; a < nA; a++ {
		w := p.k.WeightDist2(kernel.Dist2(q, p.x[a]))
		if w > 0 {
			num += w * p.v[a]
			den += w
		}
	}
	return num, den
}

// accumulate sums the weighted anchor values over the candidate positions,
// in ascending position order with zero weights skipped — the exact
// accumulation the graph estimator runs. Candidate rows are gathered into a
// tile and streamed through the SIMD distance kernel; Dist2Rows entries are
// bitwise-identical to per-pair Dist2 calls, so results never depend on the
// tiling. needSort re-sorts candidate sets whose producers return them
// unsorted.
func (p *NWPredictor) accumulate(q []float64, cand []int32, needSort bool, s *NWScratch) (num, den float64) {
	if needSort {
		slices.Sort(cand)
	}
	i := 0
	for ; i+nwTileA <= len(cand); i += nwTileA {
		for j := 0; j < nwTileA; j++ {
			s.rows[j] = p.x[cand[i+j]]
		}
		kernel.Dist2Rows(q, s.rows[:], s.d2[:])
		for j := 0; j < nwTileA; j++ {
			w := p.k.WeightDist2(s.d2[j])
			if w > 0 {
				c := cand[i+j]
				num += w * p.v[c]
				den += w
			}
		}
	}
	for ; i < len(cand); i++ {
		c := cand[i]
		w := p.k.WeightDist2(kernel.Dist2(q, p.x[c]))
		if w > 0 {
			num += w * p.v[c]
			den += w
		}
	}
	return num, den
}

// Batch-path tiling constants: anchor rows stream through the multi-row
// distance kernel in blocks of nwTileA while a tile of nwTileQ queries
// stays cache-resident, so one pass over the anchor matrix serves the whole
// query tile instead of one query. Per query the anchor order — and with it
// every floating-point accumulation — is identical to predictOne's scan, so
// tiling changes throughput, never bits.
const (
	nwTileQ = 16
	nwTileA = 8
)

// PredictBatch evaluates the estimator at every query point, writing
// estimates to dst and per-point outcomes to status (both sized len(qs)).
// Results are bitwise-identical to per-point Predict calls at every worker
// count; the brute path additionally tiles queries against anchor blocks,
// the cache- and SIMD-level win behind multi-point predict requests.
func (p *NWPredictor) PredictBatch(dst []float64, status []NWStatus, qs [][]float64, workers int) {
	p.PredictBatchBounds(dst, status, nil, qs, workers, nil)
}

// PredictBatchBounds is PredictBatch with pruning diagnostics: when bounds
// is non-nil (sized len(qs)) it receives each point's truncation
// residual-mass bound (0 for exact paths; see NWScratch.LastStats for the
// bound's definition), and when stats is non-nil the batch's pruned-anchor
// total is added to it atomically. Estimates are bitwise-identical to
// PredictBatch and per-point Predict at every worker count.
func (p *NWPredictor) PredictBatchBounds(dst []float64, status []NWStatus, bounds []float64, qs [][]float64, workers int, stats *NWBatchStats) {
	if len(dst) != len(qs) || len(status) != len(qs) {
		panic(fmt.Errorf("core: PredictBatch dst/status length mismatch: %w", ErrParam))
	}
	if bounds != nil && len(bounds) != len(qs) {
		panic(fmt.Errorf("core: PredictBatch bounds length mismatch: %w", ErrParam))
	}
	if workers == 1 {
		// Serial fast path: no closure, no goroutines — the warm batch call
		// stays allocation-free (the serving hot-path contract).
		p.predictChunk(dst, status, bounds, qs, 0, len(qs), stats)
		return
	}
	parallel.For(workers, len(qs), func(lo, hi int) {
		p.predictChunk(dst, status, bounds, qs, lo, hi, stats)
	})
}

// predictChunk evaluates one contiguous chunk of a batch.
func (p *NWPredictor) predictChunk(dst []float64, status []NWStatus, bounds []float64, qs [][]float64, lo, hi int, stats *NWBatchStats) {
	for r := lo; r < hi; r++ {
		if len(qs[r]) != p.dim {
			status[r] = NWBadDim
		} else {
			status[r] = NWOK
		}
		if bounds != nil {
			bounds[r] = 0
		}
	}
	if p.path == nwBrute {
		p.bruteTiled(dst, status, qs, lo, hi)
		return
	}
	s := p.GetScratch()
	defer p.PutScratch(s)
	var pruned int64
	for r := lo; r < hi; r++ {
		if status[r] != NWOK {
			continue
		}
		val, ok := p.predictOne(qs[r], s)
		pruned += int64(s.pruned)
		if bounds != nil {
			bounds[r] = s.bound
		}
		if !ok {
			status[r] = NWIsolated
			continue
		}
		dst[r] = val
	}
	if stats != nil && pruned > 0 {
		stats.add(pruned)
	}
}

// add accumulates pruned-anchor counts; chunks of one batch run
// concurrently, so the sum is atomic.
func (st *NWBatchStats) add(n int64) {
	atomic.AddInt64(&st.AnchorsPruned, n)
}

// bruteTiled is the blocked brute-force batch kernel: queries in tiles of
// nwTileQ, anchors in blocks of nwTileA through the batched distance
// kernel. Each query still accumulates over anchors in strictly ascending
// order with zero weights skipped, so every output is bitwise-identical to
// the scalar scan in predictOne.
func (p *NWPredictor) bruteTiled(dst []float64, status []NWStatus, qs [][]float64, lo, hi int) {
	var (
		num, den [nwTileQ]float64
		d2       [nwTileA]float64
	)
	nA := len(p.x)
	nBlk := nA - nA%nwTileA
	for qlo := lo; qlo < hi; qlo += nwTileQ {
		qhi := qlo + nwTileQ
		if qhi > hi {
			qhi = hi
		}
		for i := range num {
			num[i], den[i] = 0, 0
		}
		for a := 0; a < nBlk; a += nwTileA {
			rows := p.x[a : a+nwTileA]
			vals := p.v[a : a+nwTileA]
			for qi := qlo; qi < qhi; qi++ {
				if status[qi] != NWOK {
					continue
				}
				kernel.Dist2Rows(qs[qi], rows, d2[:])
				t := qi - qlo
				for r, dd := range d2 {
					w := p.k.WeightDist2(dd)
					if w > 0 {
						num[t] += w * vals[r]
						den[t] += w
					}
				}
			}
		}
		for qi := qlo; qi < qhi; qi++ {
			if status[qi] != NWOK {
				continue
			}
			t := qi - qlo
			for a := nBlk; a < nA; a++ {
				w := p.k.WeightDist2(kernel.Dist2(qs[qi], p.x[a]))
				if w > 0 {
					num[t] += w * p.v[a]
					den[t] += w
				}
			}
			if den[t] == 0 {
				status[qi] = NWIsolated
				continue
			}
			dst[qi] = num[t] / den[t]
		}
	}
}
