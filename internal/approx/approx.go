package approx

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/spatial"
)

// ErrTooSmall reports a system below the size where the anchor
// approximation can pay for itself; callers should run the exact path.
var ErrTooSmall = errors.New("approx: system too small to benefit from anchor approximation")

// ErrParam reports invalid solver parameters.
var ErrParam = errors.New("approx: invalid parameter")

const (
	// minN is the full-system size below which SolveHard refuses to run:
	// the exact solvers handle such systems in milliseconds.
	minN = 1024
	// defaultExtendK is the anchor truncation of the NW extension. The
	// top-k heap is the extension's hot loop, and the damped-Jacobi
	// polish afterwards contracts exactly the local error a short
	// truncation leaves behind, so a small k loses nothing that the
	// certificate would not measure anyway.
	defaultExtendK = 8
	// anchorScale, anchorMin and anchorMax shape the automatic anchor
	// budget m ≈ anchorScale·√n, the classical Nyström sizing where the
	// reduced solve is o(n) yet the aggregates stay spatially tight.
	anchorScale = 8
	anchorMin   = 256
	anchorMax   = 50000
	// reducedDenseCutoff caps the auto planner's dense tier for the
	// reduced solve: anchor systems are well-conditioned kNN graphs, so
	// IC(0)-PCG beats an O(m³) factorization well before the planner's
	// general-purpose 2048 cutoff.
	reducedDenseCutoff = 512
	// smoothSweeps damped-Jacobi sweeps polish the NW extension against
	// the full system before certification. The extension's error is
	// local (each point reads only nearby anchors), exactly the
	// high-frequency error Jacobi contracts fastest; each sweep is one
	// SpMV and shrinks the residual ‖b−Af̃‖∞ that multiplies the
	// certificate, so a handful of sweeps tightens the bound by an order
	// of magnitude for ~5% of the barrier solve's cost.
	smoothSweeps = 8
	// smoothOmega is the Jacobi damping; ρ(D⁻¹A) ≤ 2 on the hard
	// system's M-matrix, so ω = 0.6 keeps the iteration non-expansive
	// for every graph.
	smoothOmega = 0.6
)

// Options configures an approximate hard-criterion solve.
type Options struct {
	// Kernel is the similarity kernel; required, and should match the
	// kernel of the exact fit being approximated.
	Kernel *kernel.K
	// KNN bounds the reduced graph's connectivity (0 selects an automatic
	// choice; the reduced set is small enough that density is affordable).
	KNN int
	// Anchors targets the anchor count m (0 = automatic ≈ 8√n).
	Anchors int
	// ExtendK truncates the NW extension to the top-k anchors per point
	// (0 = default). The truncation error is folded into the bound.
	ExtendK int
	// Tol and MaxIter configure the reduced solve (0 = solver defaults).
	Tol     float64
	MaxIter int
	// Workers bounds parallelism; determinism never depends on it.
	Workers int
	// Ctx cancels the solve between stages and inside iterative loops.
	Ctx context.Context
}

// Result is an approximate hard-criterion solution with its certificate.
type Result struct {
	// FUnlabeled holds the approximate scores, aligned with
	// Problem.Unlabeled().
	FUnlabeled []float64
	// Bound is the computable sup-norm certificate:
	// ‖FUnlabeled − f*‖∞ ≤ Bound, where f* is the exact solution. +Inf
	// when no certificate exists (the caller must go exact).
	Bound float64
	// Anchors is the reduced system size (labels + aggregate
	// representatives); Levels the barrier hierarchy depth.
	Anchors int
	Levels  int
	// ReducedMethod/ReducedIterations report the reduced solve's backend.
	ReducedMethod     core.Method
	ReducedIterations int
	// BarrierIterations is the PCG work of the barrier certificate solve.
	BarrierIterations int
	// Isolated counts extension points with zero similarity mass to every
	// selected anchor; they score 0 and inflate the residual bound.
	Isolated int
	// Per-stage wall times of the pipeline (coarsening, reduced
	// build+solve, NW extension, certificate), surfaced in the public
	// Report's ApproxInfo.
	TreeNs, ReducedNs, ExtendNs, CertifyNs int64
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// SolveHard approximates the hard criterion (Eq. 5) on problem p with
// coordinates x: it coarsens a KD-tree over all n points into m ≪ n
// spatial aggregates, solves the reduced hard system over the labels plus
// one representative per aggregate with the exact solver stack, extends
// the reduced scores to every unlabeled point with the truncated
// Nadaraya–Watson form (Eq. 6), and certifies the result with the
// M-matrix barrier bound. Everything is deterministic and bitwise-stable
// across worker counts. The returned Bound is a true upper bound on the
// sup-norm error against the exact solution of the SAME problem; an
// infinite bound means the approximation is not certifiable and the
// caller should run the exact path.
func SolveHard(p *core.Problem, x [][]float64, opt Options) (*Result, error) {
	if p == nil || opt.Kernel == nil {
		return nil, fmt.Errorf("approx: nil problem or kernel: %w", ErrParam)
	}
	n := p.Graph().N()
	if len(x) != n {
		return nil, fmt.Errorf("approx: %d coordinate rows for %d nodes: %w", len(x), n, ErrParam)
	}
	if n < minN {
		return nil, fmt.Errorf("%w: n=%d", ErrTooSmall, n)
	}
	nl := p.N()
	target := opt.Anchors
	if target <= 0 {
		target = anchorScale * int(math.Sqrt(float64(n)))
		if target < anchorMin {
			target = anchorMin
		}
		if target > anchorMax {
			target = anchorMax
		}
	}
	if nl+target > n/2 {
		return nil, fmt.Errorf("%w: %d labels + %d anchors against n=%d", ErrTooSmall, nl, target, n)
	}
	if err := ctxErr(opt.Ctx); err != nil {
		return nil, err
	}

	// Stage 1: spatial coarsening. One KD-tree drives the anchor choice
	// here and the barrier hierarchy later.
	stageStart := time.Now()
	tree, err := spatial.NewKDTree(x, opt.Workers)
	if err != nil {
		return nil, err
	}
	maxSize := n / target
	if maxSize < 1 {
		maxSize = 1
	}
	coarse := tree.Coarsen(maxSize)

	// Stage 2: reduced point set = labels first (preserving the reduced
	// problem's labeled/unlabeled split), then every aggregate
	// representative that is not itself labeled.
	labeled := p.Labeled()
	anchorPos := make([]int32, n)
	for i := range anchorPos {
		anchorPos[i] = -1
	}
	xr := make([][]float64, 0, nl+len(coarse.Reps))
	for _, l := range labeled {
		anchorPos[l] = int32(len(xr))
		xr = append(xr, x[l])
	}
	for _, rep := range coarse.Reps {
		if anchorPos[rep] < 0 {
			anchorPos[rep] = int32(len(xr))
			xr = append(xr, x[int(rep)])
		}
	}
	if err := ctxErr(opt.Ctx); err != nil {
		return nil, err
	}
	treeNs := time.Since(stageStart).Nanoseconds()
	stageStart = time.Now()

	// Stage 3: reduced graph + reduced exact solve. Anchor spacing is
	// ≈ coarsening-cell size, so a compact kernel can disconnect the
	// reduced graph; the resulting ErrIsolated surfaces to the caller,
	// which is the correct "not approximable at this bandwidth" signal.
	knn := opt.KNN
	if knn <= 0 && len(xr) > 1024 {
		knn = 16
	}
	bopts := []graph.Option{graph.WithWorkers(opt.Workers)}
	if knn > 0 {
		bopts = append(bopts, graph.WithKNN(knn))
	}
	builder, err := graph.NewBuilder(opt.Kernel, bopts...)
	if err != nil {
		return nil, err
	}
	rg, err := builder.Build(xr)
	if err != nil {
		return nil, err
	}
	labeledR := make([]int, nl)
	for i := range labeledR {
		labeledR[i] = i
	}
	redP, err := core.NewProblem(rg, labeledR, p.Y())
	if err != nil {
		return nil, err
	}
	// The auto planner's default dense cutoff (2048) is tuned for full
	// systems where a direct factorization beats an ill-conditioned CG; a
	// reduced anchor system of a few thousand rows is cheap for IC(0)-PCG
	// and an O(m³) dense Cholesky would dominate the whole approximate
	// solve, so lower the cutoff for the reduced solve only.
	sopts := []core.SolveOption{core.WithWorkers(opt.Workers), core.WithAutoCutoff(reducedDenseCutoff)}
	if opt.Tol > 0 {
		sopts = append(sopts, core.WithTolerance(opt.Tol))
	}
	if opt.MaxIter > 0 {
		sopts = append(sopts, core.WithMaxIter(opt.MaxIter))
	}
	if opt.Ctx != nil {
		sopts = append(sopts, core.WithContext(opt.Ctx))
	}
	rsol, err := core.SolveHard(redP, sopts...)
	if err != nil {
		return nil, err
	}
	reducedNs := time.Since(stageStart).Nanoseconds()
	stageStart = time.Now()

	// Stage 4: extend to all unlabeled points. Anchor nodes keep their
	// reduced scores; the rest get the truncated NW estimate over the
	// anchor set (anchors carry exact labels where labeled, reduced
	// scores elsewhere — the Delalleau evaluation form).
	sys, err := assembleSystem(p)
	if err != nil {
		return nil, err
	}
	extendK := opt.ExtendK
	if extendK <= 0 {
		extendK = defaultExtendK
	}
	pred, err := core.NewNWPredictor(xr, rsol.F, opt.Kernel, extendK, opt.Workers)
	if err != nil {
		return nil, err
	}
	m := len(sys.unlabeled)
	fU := make([]float64, m)
	qs := make([][]float64, 0, m)
	qRow := make([]int, 0, m)
	for k, u := range sys.unlabeled {
		if ap := anchorPos[u]; ap >= 0 {
			fU[k] = rsol.F[ap]
		} else {
			qs = append(qs, x[u])
			qRow = append(qRow, k)
		}
	}
	isolated := 0
	if len(qs) > 0 {
		dst := make([]float64, len(qs))
		status := make([]core.NWStatus, len(qs))
		pred.PredictBatchBounds(dst, status, nil, qs, opt.Workers, nil)
		for i, st := range status {
			if st == core.NWOK {
				fU[qRow[i]] = dst[i]
			} else {
				isolated++ // scores 0; the residual bound absorbs it
			}
		}
	}
	sys.smooth(fU, smoothSweeps, smoothOmega, opt.Workers)
	if err := ctxErr(opt.Ctx); err != nil {
		return nil, err
	}
	extendNs := time.Since(stageStart).Nanoseconds()
	stageStart = time.Now()

	// Stage 5: certificate. The same coarsening that chose the anchors
	// preconditions the barrier solve through the multilevel hierarchy.
	h := buildHierarchy(tree, sys.unlabeled)
	bd := newBounder(sys, h, opt.Workers)
	bound := bd.Bound(fU)
	return &Result{
		FUnlabeled:        fU,
		Bound:             bound,
		Anchors:           len(xr),
		Levels:            len(h.assign),
		ReducedMethod:     rsol.Method,
		ReducedIterations: rsol.Iterations,
		BarrierIterations: bd.BarrierIterations,
		Isolated:          isolated,
		TreeNs:            treeNs,
		ReducedNs:         reducedNs,
		ExtendNs:          extendNs,
		CertifyNs:         time.Since(stageStart).Nanoseconds(),
	}, nil
}
