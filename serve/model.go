package serve

import (
	"fmt"
	"math"
	"sort"
	"sync"

	graphssl "repro"
	"repro/internal/core"
	"repro/internal/kernel"
)

// AnchorSet selects which training points a served model anchors its
// inductive Nadaraya–Watson extension on.
type AnchorSet uint8

const (
	// AnchorLabeled anchors on the labeled points with their fitted
	// scores. Under the hard criterion the fitted labeled scores are
	// exactly the observed responses, so Predict at an in-sample point is
	// bitwise-identical to the NadarayaWatson baseline on a default-built
	// graph. This is the default.
	AnchorLabeled AnchorSet = iota
	// AnchorAll anchors on every training point with its fitted score —
	// the Delalleau-style induction, which also propagates the structure
	// the fit extracted from the unlabeled points.
	AnchorAll
)

// String names the anchor set for reports and the HTTP API.
func (a AnchorSet) String() string {
	if a == AnchorAll {
		return "all"
	}
	return "labeled"
}

// Model is an immutable serving snapshot: a frozen inductive predictor plus
// the hyperparameters it was fitted with. It is safe for unbounded
// concurrent use; all mutable prediction state is per-call.
type Model struct {
	dim       int
	kind      kernel.Kind
	bandwidth float64
	knn       int
	topM      int
	lambda    float64
	anchorSet AnchorSet
	trainN    int
	labeledN  int
	pred      *core.NWPredictor
	workers   int
}

// ModelOption configures NewModel.
type ModelOption func(*modelConfig)

type modelConfig struct {
	anchorSet AnchorSet
	workers   int
	topM      int
}

// WithAnchorSet selects the anchor set (default AnchorLabeled).
func WithAnchorSet(a AnchorSet) ModelOption {
	return func(c *modelConfig) { c.anchorSet = a }
}

// WithWorkers bounds the parallelism of batch predictions made through this
// model (<= 0 selects GOMAXPROCS, 1 runs serially). Worker count never
// changes results.
func WithWorkers(w int) ModelOption {
	return func(c *modelConfig) { c.workers = w }
}

// WithTopM truncates every prediction to its m nearest anchors. Unlike the
// exact compact-kernel pruning (which only skips anchors the kernel already
// weighs zero), top-m is an approximation: each response carries a
// residual-mass bound quantifying the kernel mass the truncation could have
// dropped — see Result.Bounds and the per-point residual_bound in the HTTP
// API. m <= 0 disables truncation (the default). Snapshots fitted with a
// kNN graph are already truncated and reject the option.
func WithTopM(m int) ModelOption {
	return func(c *modelConfig) { c.topM = m }
}

// NewModel freezes a fitted snapshot into a servable model. The snapshot's
// anchor points are deep-copied out, so the caller may keep mutating its
// own data afterwards. Every anchor's score must be finite: a snapshot from
// graphssl.HardSnapshot, whose unlabeled scores are NaN, builds only
// AnchorLabeled models.
func NewModel(snap *graphssl.ModelSnapshot, opts ...ModelOption) (*Model, error) {
	if snap == nil {
		return nil, fmt.Errorf("serve: nil snapshot: %w", ErrSnapshot)
	}
	cfg := modelConfig{anchorSet: AnchorLabeled, workers: 1}
	for _, o := range opts {
		o(&cfg)
	}
	dim := snap.Dim()
	if dim == 0 {
		return nil, fmt.Errorf("serve: empty snapshot: %w", ErrSnapshot)
	}
	if len(snap.Scores) != len(snap.X) {
		return nil, fmt.Errorf("serve: %d scores for %d points: %w", len(snap.Scores), len(snap.X), ErrSnapshot)
	}
	k, err := kernel.New(snap.Kernel, snap.Bandwidth)
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot kernel: %w", ErrSnapshot)
	}

	// Anchor points in ascending node order with their fitted scores —
	// the accumulation order that keeps Predict bitwise-identical to the
	// transductive estimators.
	var nodes []int
	switch cfg.anchorSet {
	case AnchorLabeled:
		if len(snap.Labeled) == 0 {
			return nil, fmt.Errorf("serve: snapshot has no labeled points: %w", ErrSnapshot)
		}
		nodes = append([]int(nil), snap.Labeled...)
		sort.Ints(nodes)
	case AnchorAll:
		nodes = make([]int, len(snap.X))
		for i := range nodes {
			nodes[i] = i
		}
	default:
		return nil, fmt.Errorf("serve: anchor set %d: %w", cfg.anchorSet, ErrSnapshot)
	}
	anchors := make([][]float64, len(nodes))
	values := make([]float64, len(nodes))
	for p, node := range nodes {
		if node < 0 || node >= len(snap.X) {
			return nil, fmt.Errorf("serve: snapshot labeled index %d outside [0,%d): %w", node, len(snap.X), ErrSnapshot)
		}
		if len(snap.X[node]) != dim {
			return nil, fmt.Errorf("serve: snapshot point %d has dim %d, want %d: %w", node, len(snap.X[node]), dim, ErrSnapshot)
		}
		v := snap.Scores[node]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("serve: snapshot score of anchor %d is %v: %w", node, v, ErrSnapshot)
		}
		anchors[p] = append([]float64(nil), snap.X[node]...)
		values[p] = v
	}
	knn := snap.KNN
	if cfg.topM > 0 {
		if snap.KNN > 0 {
			return nil, fmt.Errorf("serve: top-m truncation on a kNN-fitted snapshot (knn=%d): %w", snap.KNN, ErrSnapshot)
		}
		knn = cfg.topM
	}
	pred, err := core.NewNWPredictor(anchors, values, k, knn, cfg.workers)
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot predictor: %w", ErrSnapshot)
	}
	return &Model{
		dim:       dim,
		kind:      snap.Kernel,
		bandwidth: snap.Bandwidth,
		knn:       snap.KNN,
		topM:      cfg.topM,
		lambda:    snap.Lambda,
		anchorSet: cfg.anchorSet,
		trainN:    len(snap.X),
		labeledN:  len(snap.Labeled),
		pred:      pred,
		workers:   cfg.workers,
	}, nil
}

// ApplyDelta rolls the model forward by a streaming snapshot delta:
// the newly labeled points become additional anchors appended after the
// existing ones, without republishing (or re-copying) the anchors
// already served. The receiver is unchanged; the returned model shares
// its anchor storage and is bitwise prediction-identical to
// NewModel(snap.ApplyDelta(d), ...) with the options this model was
// built with: delta points carry node indices past every existing one,
// so appending preserves the ascending-node-order accumulation contract.
//
// Only hard-criterion (lambda = 0) labeled-anchor models can roll
// forward — exactly the models whose labeled scores are pinned to the
// responses a delta carries. Anything else needs a full republish.
func (m *Model) ApplyDelta(d *graphssl.SnapshotDelta) (*Model, error) {
	if d == nil || d.Len() == 0 {
		return m, nil
	}
	if m.lambda != 0 {
		return nil, fmt.Errorf("serve: delta roll-forward needs the hard criterion (lambda=0), got %v: %w", m.lambda, ErrSnapshot)
	}
	if m.anchorSet != AnchorLabeled {
		return nil, fmt.Errorf("serve: delta roll-forward needs labeled anchors, got %q: %w", m.anchorSet, ErrSnapshot)
	}
	if len(d.X) != len(d.Y) {
		return nil, fmt.Errorf("serve: delta has %d points, %d responses: %w", len(d.X), len(d.Y), ErrSnapshot)
	}
	anchors := make([][]float64, len(d.X))
	values := make([]float64, len(d.Y))
	for i, xi := range d.X {
		if len(xi) != m.dim {
			return nil, fmt.Errorf("serve: delta point %d has dim %d, want %d: %w", i, len(xi), m.dim, ErrSnapshot)
		}
		for j, v := range xi {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("serve: delta point %d coordinate %d is %v: %w", i, j, v, ErrSnapshot)
			}
		}
		if math.IsNaN(d.Y[i]) || math.IsInf(d.Y[i], 0) {
			return nil, fmt.Errorf("serve: delta response %d is %v: %w", i, d.Y[i], ErrSnapshot)
		}
		anchors[i] = append([]float64(nil), xi...)
		values[i] = d.Y[i]
	}
	pred, err := m.pred.AppendAnchors(anchors, values, m.workers)
	if err != nil {
		return nil, fmt.Errorf("serve: delta predictor: %w", ErrSnapshot)
	}
	next := *m
	next.pred = pred
	next.trainN += len(d.X)
	next.labeledN += len(d.X)
	return &next, nil
}

// Dim returns the input dimension query points must have.
func (m *Model) Dim() int { return m.dim }

// NumAnchors returns the number of anchor points the model predicts from.
func (m *Model) NumAnchors() int { return m.pred.NumAnchors() }

// Info describes the model for the HTTP API and reports.
type Info struct {
	Dim       int     `json:"dim"`
	Kernel    string  `json:"kernel"`
	Bandwidth float64 `json:"bandwidth"`
	KNN       int     `json:"knn,omitempty"`
	TopM      int     `json:"top_m,omitempty"`
	Lambda    float64 `json:"lambda"`
	AnchorSet string  `json:"anchor_set"`
	Anchors   int     `json:"anchors"`
	TrainN    int     `json:"train_n"`
	LabeledN  int     `json:"labeled_n"`
	// Pruning names the anchor-lookup path the predictor selected: "brute"
	// (full SIMD scan), "kdtree" (the exact compact-kernel support ball), or
	// "knn" (top-m truncation with residual bounds).
	Pruning string `json:"pruning"`
}

// Info returns the model's hyperparameters and sizes.
func (m *Model) Info() Info {
	return Info{
		Dim:       m.dim,
		Kernel:    m.kind.String(),
		Bandwidth: m.bandwidth,
		KNN:       m.knn,
		TopM:      m.topM,
		Lambda:    m.lambda,
		AnchorSet: m.anchorSet.String(),
		Anchors:   m.pred.NumAnchors(),
		TrainN:    m.trainN,
		LabeledN:  m.labeledN,
		Pruning:   m.pred.Path(),
	}
}

// pointStatus is the per-point outcome of a batched prediction.
type pointStatus uint8

const (
	psOK pointStatus = iota
	psBadPoint
	psIsolated
)

// err maps a non-OK status to its sentinel.
func (s pointStatus) err() error {
	switch s {
	case psBadPoint:
		return ErrPoint
	case psIsolated:
		return ErrIsolated
	default:
		return nil
	}
}

// checkPoint validates one query point against the model.
func (m *Model) checkPoint(q []float64) bool {
	if len(q) != m.dim {
		return false
	}
	for _, v := range q {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Predict evaluates the inductive estimator at one query point. It returns
// ErrPoint for a malformed point and ErrIsolated when the point has zero
// similarity mass to every anchor.
func (m *Model) Predict(q []float64) (float64, error) {
	if !m.checkPoint(q) {
		return 0, fmt.Errorf("serve: point has dim %d, want %d finite coordinates: %w", len(q), m.dim, ErrPoint)
	}
	v, err := m.pred.Predict(q, nil)
	if err != nil {
		return 0, fmt.Errorf("serve: no anchor within kernel support: %w", ErrIsolated)
	}
	return v, nil
}

// PredictBatch evaluates the estimator at every query point, returning the
// estimates and, when some points fail, a per-point error slice (nil
// entries mark successes). The batch path tiles queries against anchor
// blocks, so large batches run substantially faster per point than repeated
// Predict calls while staying bitwise-identical to them.
func (m *Model) PredictBatch(qs [][]float64) ([]float64, []error) {
	dst := make([]float64, len(qs))
	st := make([]pointStatus, len(qs))
	m.predictInto(dst, st, nil, qs, m.workers)
	var errs []error
	for i, s := range st {
		if s != psOK {
			if errs == nil {
				errs = make([]error, len(qs))
			}
			errs[i] = s.err()
		}
	}
	return dst, errs
}

// predictScratch holds the reusable buffers of one predictInto call; pooled
// so the warm batch path stays allocation-free.
type predictScratch struct {
	cst     []core.NWStatus
	good    [][]float64
	pos     []int
	gdst    []float64
	gbounds []float64
	// stats lives in the pooled scratch (not on the stack) because its
	// address crosses into the predictor's worker closure, which would
	// otherwise heap-allocate it per call.
	stats core.NWBatchStats
}

var predictPool = sync.Pool{New: func() any { return new(predictScratch) }}

func (ps *predictScratch) size(n int) {
	if cap(ps.cst) < n {
		ps.cst = make([]core.NWStatus, n)
		ps.good = make([][]float64, n)
		ps.pos = make([]int, n)
		ps.gdst = make([]float64, n)
		ps.gbounds = make([]float64, n)
	}
}

// predictInto is the allocation-free batch core of every predict path: dst,
// st, and (optionally nil) bounds are caller-owned slices sized len(qs).
// Malformed points are screened before the compute pass and never reach the
// predictor. Every entry of dst/st/bounds is written, so callers may hand
// in dirty pooled buffers.
func (m *Model) predictInto(dst []float64, st []pointStatus, bounds []float64, qs [][]float64, workers int) {
	n := len(qs)
	ps := predictPool.Get().(*predictScratch)
	ps.size(n)
	ps.stats.AnchorsPruned = 0
	bad := false
	for i, q := range qs {
		if m.checkPoint(q) {
			st[i] = psOK
		} else {
			st[i] = psBadPoint
			bad = true
		}
	}
	if bad {
		// Compact the good points so the tiled kernel sees a clean batch.
		good, pos := ps.good[:0], ps.pos[:0]
		for i, q := range qs {
			if st[i] == psOK {
				good = append(good, q)
				pos = append(pos, i)
			}
		}
		for i := range qs {
			dst[i] = 0
			if bounds != nil {
				bounds[i] = 0
			}
		}
		if len(good) > 0 {
			gdst, gst := ps.gdst[:len(good)], ps.cst[:len(good)]
			var gbounds []float64
			if bounds != nil {
				gbounds = ps.gbounds[:len(good)]
			}
			m.pred.PredictBatchBounds(gdst, gst, gbounds, good, workers, &ps.stats)
			for r, i := range pos {
				switch gst[r] {
				case core.NWOK:
					dst[i] = gdst[r]
					if bounds != nil {
						bounds[i] = gbounds[r]
					}
				default:
					st[i] = psIsolated
				}
			}
		}
		// Drop the caller's query references before pooling.
		for i := range good {
			good[i] = nil
		}
	} else {
		cst := ps.cst[:n]
		m.pred.PredictBatchBounds(dst, cst, bounds, qs, workers, &ps.stats)
		for i, s := range cst {
			if s != core.NWOK {
				st[i] = psIsolated
				dst[i] = 0
				if bounds != nil {
					bounds[i] = 0
				}
			}
		}
	}
	pruned := ps.stats.AnchorsPruned
	predictPool.Put(ps)
	countPruned(pruned)
}
