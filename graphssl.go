package graphssl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/mat"
)

var (
	// ErrParam is returned for invalid inputs or option combinations.
	ErrParam = errors.New("graphssl: invalid parameter")
	// ErrIsolated is returned when some unlabeled point cannot be reached
	// from any labeled point in the similarity graph; predictions there are
	// undefined. Enlarging the bandwidth or k usually fixes it.
	ErrIsolated = errors.New("graphssl: unlabeled point isolated from all labels")
)

// Kernel re-exports the kernel profiles accepted by WithKernel.
type Kernel = kernel.Kind

// Supported kernels.
const (
	Gaussian     = kernel.Gaussian
	Uniform      = kernel.Uniform
	Epanechnikov = kernel.Epanechnikov
	Triangular   = kernel.Triangular
	Tricube      = kernel.Tricube
)

// Solver selects the linear-algebra backend.
type Solver = core.Method

// Supported solver backends.
const (
	SolverAuto     = core.MethodAuto
	SolverCholesky = core.MethodCholesky
	SolverCG       = core.MethodCG
)

// Precond selects the preconditioner of CG-backed solves.
type Precond = core.Precond

// Supported preconditioners.
const (
	// PrecondAuto (the default) is Jacobi at every size, bit for bit as
	// PrecondJacobi.
	PrecondAuto = core.PrecondAuto
	// PrecondJacobi forces diagonal scaling (the historical solve path,
	// bit-for-bit).
	PrecondJacobi = core.PrecondJacobi
	// PrecondIC0 forces RCM-reordered zero-fill incomplete Cholesky, falling
	// back to Jacobi if the factorization breaks down.
	PrecondIC0 = core.PrecondIC0
	// PrecondNone runs unpreconditioned CG.
	PrecondNone = core.PrecondNone
)

type bandwidthRule int

const (
	bwMedian bandwidthRule = iota + 1
	bwPaper
	bwFixed
)

type config struct {
	kernel     Kernel
	bwRule     bandwidthRule
	bandwidth  float64
	knn        int
	lambda     float64
	solver     Solver
	tol        float64
	maxIter    int
	precond    Precond         // CG preconditioner; zero value = auto
	workers    int             // parallel compute layer: 0 = GOMAXPROCS, 1 = serial
	ctx        context.Context // nil = never canceled
	report     *Report         // non-nil: fill diagnostics
	autoCutoff int             // 0 = core default dense/iterative cutover
}

func defaultConfig() config {
	return config{
		kernel: Gaussian,
		bwRule: bwMedian,
		solver: SolverAuto,
		tol:    1e-10,
	}
}

// Option customizes Fit and NadarayaWatson.
type Option interface {
	apply(*config)
}

type optionFunc func(*config)

func (f optionFunc) apply(c *config) { f(c) }

// WithKernel selects the similarity kernel (default Gaussian).
func WithKernel(k Kernel) Option {
	return optionFunc(func(c *config) { c.kernel = k })
}

// WithBandwidth fixes the kernel bandwidth h (σ for the Gaussian kernel).
func WithBandwidth(h float64) Option {
	return optionFunc(func(c *config) { c.bwRule, c.bandwidth = bwFixed, h })
}

// WithMedianBandwidth selects the median heuristic σ² = median squared
// pairwise distance (the default, and the paper's choice for the COIL
// study).
func WithMedianBandwidth() Option {
	return optionFunc(func(c *config) { c.bwRule = bwMedian })
}

// WithPaperBandwidth selects the paper's synthetic-study rule
// h = (log n / n)^{1/d} with n the labeled count and d the input dimension.
func WithPaperBandwidth() Option {
	return optionFunc(func(c *config) { c.bwRule = bwPaper })
}

// WithKNN sparsifies the graph to the symmetrized k nearest neighbours.
func WithKNN(k int) Option {
	return optionFunc(func(c *config) { c.knn = k })
}

// WithLambda selects the soft criterion with tuning parameter λ ≥ 0
// (λ = 0 is the hard criterion, the default and the paper's
// recommendation).
func WithLambda(l float64) Option {
	return optionFunc(func(c *config) { c.lambda = l })
}

// WithSolver selects the linear-algebra backend (default auto).
func WithSolver(s Solver) Option {
	return optionFunc(func(c *config) { c.solver = s })
}

// WithPreconditioner selects the preconditioner of CG-backed solves
// (default PrecondAuto). Preconditioning changes only how fast CG
// converges, never what it converges to; every choice is deterministic and
// bitwise-stable across worker counts.
func WithPreconditioner(p Precond) Option {
	return optionFunc(func(c *config) { c.precond = p })
}

// WithTolerance sets the iterative-backend tolerance.
func WithTolerance(tol float64) Option {
	return optionFunc(func(c *config) { c.tol = tol })
}

// WithMaxIter caps iterative-backend iterations.
func WithMaxIter(n int) Option {
	return optionFunc(func(c *config) { c.maxIter = n })
}

// WithWorkers sets the worker count for the shared-memory parallel compute
// layer: the pairwise-distance pass, graph construction (including k-NN
// selection), the matrix-vector products inside iterative solves, and the
// per-class solves of FitMulticlass. n <= 0 (the default) selects
// runtime.GOMAXPROCS(0); n == 1 forces the serial path. For any fixed
// input, the fitted result is bitwise-identical across worker counts.
func WithWorkers(n int) Option {
	return optionFunc(func(c *config) { c.workers = n })
}

// WithContext attaches a context to the fit. Iterative solvers check it
// once per iteration sweep and the pipeline checks it between stages, so
// canceling the context (or exceeding its deadline) aborts the fit with
// ctx.Err() — errors.Is(err, context.Canceled) or context.DeadlineExceeded
// — within roughly one sweep of work. Cancellation is terminal: it never
// triggers a solver fallback.
func WithContext(ctx context.Context) Option {
	return optionFunc(func(c *config) { c.ctx = ctx })
}

// WithDiagnostics requests a diagnostics Report for the fit: per-stage wall
// clock, the solver chain and fallbacks taken, iterative work, and the
// numerical-health warnings of the pre-solve probe. The pointed-to Report
// is reset and filled by the fit (also on failure, as far as the pipeline
// got). Requesting diagnostics forces the health probe to run but never
// changes the fitted scores.
func WithDiagnostics(r *Report) Option {
	return optionFunc(func(c *config) { c.report = r })
}

// WithAutoCutoff tunes the system size at and below which SolverAuto uses a
// direct dense factorization instead of starting its chain at
// preconditioned conjugate gradient (default 2048). Large sparse
// deployments may lower it to lean on the iterative path sooner; n <= 0
// keeps the default.
func WithAutoCutoff(n int) Option {
	return optionFunc(func(c *config) { c.autoCutoff = n })
}

// Result is a fitted transductive model.
type Result struct {
	// Scores holds one score per input point. For the hard criterion,
	// labeled points carry their observed labels exactly.
	Scores []float64
	// Labeled are the labeled point indices (as passed or defaulted).
	Labeled []int
	// Unlabeled are the remaining indices, ascending; UnlabeledScores
	// aligns with it.
	Unlabeled       []int
	UnlabeledScores []float64
	// Lambda is the criterion parameter used.
	Lambda float64
	// Bandwidth is the kernel bandwidth actually used.
	Bandwidth float64
	// Kernel is the similarity kernel the fit was built with; zero for
	// FitGraph results, whose similarity matrix is caller-supplied.
	Kernel Kernel
	// KNN is the k-NN sparsification used to build the graph (0 = dense).
	KNN int
	// Solver is the backend that produced the solution.
	Solver Solver
	// Iterations and Residual report iterative-backend work.
	Iterations int
	Residual   float64
	// GraphStats summarizes the similarity graph.
	GraphStats graph.Stats
}

// ModelSnapshot is an immutable, self-contained freeze of a fitted model:
// the training inputs, their responses, the fitted scores, and the graph
// hyperparameters (kernel, bandwidth, k-NN sparsification) needed to extend
// the fit to out-of-sample query points. It is the export hook consumed by
// the serve package, which wraps it in an inductive predictor and an HTTP
// model registry. Every slice is a deep copy, so later mutation of the
// training data or the Result cannot alias into a served model.
type ModelSnapshot struct {
	// X are the training inputs, Y the responses aligned with Labeled.
	X       [][]float64
	Y       []float64
	Labeled []int
	// Scores are the fitted scores, one per training point.
	Scores []float64
	// Kernel, Bandwidth, and KNN identify the similarity graph the fit
	// used; Lambda is the criterion parameter.
	Kernel    Kernel
	Bandwidth float64
	KNN       int
	Lambda    float64
}

// Dim returns the input dimension.
func (s *ModelSnapshot) Dim() int {
	if len(s.X) == 0 {
		return 0
	}
	return len(s.X[0])
}

// Snapshot freezes the fit into a ModelSnapshot for serving. The Result
// does not retain the training data, so the caller passes back the same x
// and y given to Fit; Snapshot validates them against the fit (point count,
// response count, labeled indices, finite coordinates) and deep-copies
// everything. Results of FitGraph cannot be snapshotted: their similarity
// matrix is caller-supplied, so no kernel extension to new points exists.
func (r *Result) Snapshot(x [][]float64, y []float64) (*ModelSnapshot, error) {
	if r.Kernel == 0 {
		return nil, fmt.Errorf("graphssl: snapshot requires a kernel-built fit (FitGraph results carry no kernel): %w", ErrParam)
	}
	if !(r.Bandwidth > 0) || math.IsInf(r.Bandwidth, 0) {
		return nil, fmt.Errorf("graphssl: snapshot bandwidth %v: %w", r.Bandwidth, ErrParam)
	}
	if len(x) != len(r.Scores) {
		return nil, fmt.Errorf("graphssl: snapshot of %d points against a fit of %d: %w", len(x), len(r.Scores), ErrParam)
	}
	if len(y) != len(r.Labeled) {
		return nil, fmt.Errorf("graphssl: %d responses for %d labeled points: %w", len(y), len(r.Labeled), ErrParam)
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("graphssl: empty snapshot: %w", ErrParam)
	}
	dim := len(x[0])
	if dim == 0 {
		return nil, fmt.Errorf("graphssl: zero-dimensional snapshot inputs: %w", ErrParam)
	}
	snap := &ModelSnapshot{
		X:         make([][]float64, len(x)),
		Y:         append([]float64(nil), y...),
		Labeled:   append([]int(nil), r.Labeled...),
		Scores:    append([]float64(nil), r.Scores...),
		Kernel:    r.Kernel,
		Bandwidth: r.Bandwidth,
		KNN:       r.KNN,
		Lambda:    r.Lambda,
	}
	for i, xi := range x {
		if len(xi) != dim {
			return nil, fmt.Errorf("graphssl: snapshot point %d has dim %d, want %d: %w", i, len(xi), dim, ErrParam)
		}
		for j, v := range xi {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("graphssl: snapshot point %d coordinate %d is %v: %w", i, j, v, ErrParam)
			}
		}
		snap.X[i] = append([]float64(nil), xi...)
	}
	seen := make([]bool, len(x))
	for _, idx := range snap.Labeled {
		if idx < 0 || idx >= len(x) || seen[idx] {
			return nil, fmt.Errorf("graphssl: snapshot labeled index %d invalid: %w", idx, ErrParam)
		}
		seen[idx] = true
	}
	countSnapshot()
	return snap, nil
}

// HardSnapshot builds the ModelSnapshot of a hard-criterion fit without
// solving for the unlabeled scores. Eq. 5 fixes the labeled scores to Y,
// and a model anchored on the labeled points (serve.AnchorLabeled) reads no
// other score: it is the Nadaraya–Watson estimator of Eq. 6 over (X_L, Y),
// bit for bit what Fit followed by Result.Snapshot would serve. The
// snapshot's Scores hold Y at the labeled points and NaN at the unlabeled
// ones, so no all-points model can be built from it (serve.NewModel refuses
// non-finite anchor values).
//
// HardSnapshot runs Fit's input validation and bandwidth stage. Without
// kNN it then decides Fit's coverage check without building the graph (the
// coverage stage, graph.Builder.Covered: a labeled neighbour of positive
// weight for each unlabeled point, or a path of positive-weight edges to
// one). A fit that decision does not find covered, and every kNN fit, runs
// Fit's graph and problem stages and coverage check instead, so
// HardSnapshot fails with ErrParam or ErrIsolated, message and all, where
// they fail Fit or Snapshot, and only a failing fit pays for both. It
// freezes the scores with Result.Snapshot, checks the context between
// stages and fills a WithDiagnostics report with the stages it ran:
// bandwidth and coverage, then graph and problem where the fallback runs.
// A λ other than 0 fails with ErrParam. Solver options do not apply, as no
// solve runs. So one input class fails Fit and not HardSnapshot: a system
// that passes the coverage check but that the solve finds numerically
// singular, or on which the iterative solve stagnates.
func HardSnapshot(x [][]float64, y []float64, labeled []int, opts ...Option) (*ModelSnapshot, error) {
	res, rep, err := hardFit(x, y, labeled, opts)
	// No solve ran, so the solver counters stay where they are.
	countFit(err)
	if err != nil {
		if rep != nil {
			rep.Err = err.Error()
		}
		return nil, err
	}
	return res.Snapshot(x, y)
}

// hardFit is the HardSnapshot pipeline body: a Result whose Scores hold Y
// at the labeled points and NaN at the unlabeled ones.
func hardFit(x [][]float64, y []float64, labeled []int, opts []Option) (*Result, *Report, error) {
	cfg := newConfig(opts)
	if cfg.lambda != 0 {
		return nil, cfg.report, fmt.Errorf("graphssl: hard snapshot with λ=%v: %w", cfg.lambda, ErrParam)
	}
	labeled, k, err := resolveKernel(x, y, labeled, cfg)
	if err != nil {
		return nil, cfg.report, err
	}
	covered := false
	if cfg.knn == 0 {
		start := time.Now()
		covered = decideCoverage(x, y, labeled, k, cfg)
		cfg.report.addStage("coverage", time.Since(start))
		if err := ctxErr(cfg.ctx); err != nil {
			return nil, cfg.report, err
		}
	}
	if !covered {
		p, _, err := buildProblem(x, y, labeled, k, cfg)
		if err != nil {
			return nil, cfg.report, err
		}
		if err := ctxErr(cfg.ctx); err != nil {
			return nil, cfg.report, err
		}
		if err := p.CheckCoverage(); err != nil {
			return nil, cfg.report, translateCoreErr(err)
		}
	}
	bw := k.Bandwidth()
	if r := cfg.report; r != nil {
		r.Bandwidth = bw
	}
	res := &Result{
		Scores:    make([]float64, len(x)),
		Labeled:   slices.Clone(labeled),
		Lambda:    cfg.lambda,
		Bandwidth: bw,
		Kernel:    cfg.kernel,
		KNN:       cfg.knn,
	}
	for i := range res.Scores {
		res.Scores[i] = math.NaN()
	}
	for j, l := range res.Labeled {
		res.Scores[l] = y[j]
	}
	return res, cfg.report, nil
}

// decideCoverage reports whether the fit passes core.NewProblem's label
// checks and every component of its graph holds a labeled point, decided
// without building the graph (graph.Builder.Covered). It answers false on
// any error, which the fallback through the graph then reports.
func decideCoverage(x [][]float64, y []float64, labeled []int, k *kernel.K, cfg config) bool {
	isLabeled, err := core.LabelMask(len(x), labeled, y)
	if err != nil {
		return false
	}
	b, err := newBuilder(k, cfg)
	if err != nil {
		return false
	}
	covered, err := b.Covered(x, isLabeled)
	return covered && err == nil
}

// Fit builds the similarity graph over x and solves the selected criterion.
//
// labeled lists the indices of x carrying the responses y (aligned
// index-for-index). Pass labeled = nil for the paper's layout, where the
// first len(y) points are labeled.
func Fit(x [][]float64, y []float64, labeled []int, opts ...Option) (*Result, error) {
	res, rep, err := fit(x, y, labeled, opts)
	countFit(err)
	if rep != nil && err != nil {
		rep.Err = err.Error()
	}
	return res, err
}

// fit is the Fit pipeline body; Fit wraps it to update the fit counters and
// the diagnostics report exactly once per call, and it moves the solver
// counters once its solve succeeds.
func fit(x [][]float64, y []float64, labeled []int, opts []Option) (*Result, *Report, error) {
	cfg := newConfig(opts)
	p, bw, g, err := prepare(x, y, labeled, cfg)
	if err != nil {
		return nil, cfg.report, err
	}

	solveStart := time.Now()
	sol, err := solveExact(p, cfg)
	if err != nil {
		return nil, cfg.report, translateCoreErr(err)
	}
	countSolve(sol)
	cfg.report.addStage("solve", time.Since(solveStart))
	if r := cfg.report; r != nil {
		r.Bandwidth = bw
		r.fromSolution(sol)
	}

	return &Result{
		Scores:          sol.F,
		Labeled:         p.Labeled(),
		Unlabeled:       p.Unlabeled(),
		UnlabeledScores: sol.FUnlabeled,
		Lambda:          cfg.lambda,
		Bandwidth:       bw,
		Kernel:          cfg.kernel,
		KNN:             cfg.knn,
		Solver:          sol.Method,
		Iterations:      sol.Iterations,
		Residual:        sol.Residual,
		GraphStats:      g.Summary(),
	}, cfg.report, nil
}

// solveExact solves the fit's criterion on core's solver stack with the
// fit's solver options.
func solveExact(p *core.Problem, cfg config) (*core.Solution, error) {
	solveOpts := coreSolveOptions(cfg)
	if cfg.report != nil {
		solveOpts = append(solveOpts, core.WithHealthProbe())
	}
	return core.SolveSoft(p, cfg.lambda, solveOpts...)
}

// coreSolveOptions translates the fit's solver options for core.
func coreSolveOptions(cfg config) []core.SolveOption {
	solveOpts := []core.SolveOption{
		core.WithMethod(cfg.solver),
		core.WithTolerance(cfg.tol),
		core.WithMaxIter(cfg.maxIter),
		core.WithWorkers(cfg.workers),
		core.WithPreconditioner(cfg.precond),
	}
	if cfg.ctx != nil {
		solveOpts = append(solveOpts, core.WithContext(cfg.ctx))
	}
	if cfg.autoCutoff > 0 {
		solveOpts = append(solveOpts, core.WithAutoCutoff(cfg.autoCutoff))
	}
	return solveOpts
}

// ctxErr reports the context's error, tolerating the nil (never canceled)
// default.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// NadarayaWatson computes the paper's Eq. 6 kernel-regression baseline on
// the unlabeled points, using the same graph options as Fit. The returned
// scores align with the ascending unlabeled index order (the second return
// value).
func NadarayaWatson(x [][]float64, y []float64, labeled []int, opts ...Option) ([]float64, []int, error) {
	p, _, _, err := prepare(x, y, labeled, newConfig(opts))
	if err != nil {
		return nil, nil, err
	}
	nw, err := core.NadarayaWatson(p)
	if err != nil {
		return nil, nil, translateCoreErr(err)
	}
	return nw, p.Unlabeled(), nil
}

// newConfig applies opts over the defaults and resets the diagnostics
// report, if one was requested.
func newConfig(opts []Option) config {
	cfg := defaultConfig()
	for _, o := range opts {
		o.apply(&cfg)
	}
	if cfg.report != nil {
		*cfg.report = Report{}
	}
	return cfg
}

// prepare validates inputs, resolves the bandwidth, builds the graph, and
// assembles the core problem.
func prepare(x [][]float64, y []float64, labeled []int, cfg config) (*core.Problem, float64, *graph.Graph, error) {
	labeled, k, err := resolveKernel(x, y, labeled, cfg)
	if err != nil {
		return nil, 0, nil, err
	}
	p, g, err := buildProblem(x, y, labeled, k, cfg)
	if err != nil {
		return nil, 0, nil, err
	}
	return p, k.Bandwidth(), g, nil
}

// resolveKernel is prepare's first half: it validates the inputs, defaults
// a nil labeled to the first len(y) points, and resolves the bandwidth
// stage's kernel.
func resolveKernel(x [][]float64, y []float64, labeled []int, cfg config) ([]int, *kernel.K, error) {
	if err := ctxErr(cfg.ctx); err != nil {
		return nil, nil, err
	}
	if len(x) == 0 {
		return nil, nil, fmt.Errorf("graphssl: no input points: %w", ErrParam)
	}
	dim := len(x[0])
	if dim == 0 {
		return nil, nil, fmt.Errorf("graphssl: zero-dimensional inputs: %w", ErrParam)
	}
	for i, xi := range x {
		if len(xi) != dim {
			return nil, nil, fmt.Errorf("graphssl: point %d has dim %d, want %d: %w", i, len(xi), dim, ErrParam)
		}
		for j, v := range xi {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, nil, fmt.Errorf("graphssl: point %d coordinate %d is %v: %w", i, j, v, ErrParam)
			}
		}
	}
	if err := checkResponses(y); err != nil {
		return nil, nil, err
	}
	if labeled == nil {
		if len(y) >= len(x) {
			return nil, nil, fmt.Errorf("graphssl: %d responses for %d points leaves nothing unlabeled: %w", len(y), len(x), ErrParam)
		}
		labeled = make([]int, len(y))
		for i := range labeled {
			labeled[i] = i
		}
	} else {
		// Validate the labeled set before the (expensive) bandwidth and
		// graph stages so malformed index lists fail fast with ErrParam.
		seen := make([]bool, len(x))
		for _, idx := range labeled {
			if idx < 0 || idx >= len(x) {
				return nil, nil, fmt.Errorf("graphssl: labeled index %d outside [0,%d): %w", idx, len(x), ErrParam)
			}
			if seen[idx] {
				return nil, nil, fmt.Errorf("graphssl: duplicate labeled index %d: %w", idx, ErrParam)
			}
			seen[idx] = true
		}
	}
	if cfg.lambda < 0 || math.IsNaN(cfg.lambda) || math.IsInf(cfg.lambda, 0) {
		return nil, nil, fmt.Errorf("graphssl: λ=%v: %w", cfg.lambda, ErrParam)
	}

	bwStart := time.Now()
	var (
		bw  float64
		err error
	)
	switch cfg.bwRule {
	case bwFixed:
		bw = cfg.bandwidth
	case bwPaper:
		bw, err = kernel.PaperBandwidth(len(labeled), dim)
		if err != nil {
			return nil, nil, fmt.Errorf("graphssl: paper bandwidth: %w: %v", ErrParam, err)
		}
	default:
		bw, err = kernel.MedianHeuristic(x, 200000)
		if err != nil {
			return nil, nil, fmt.Errorf("graphssl: median bandwidth: %w: %v", ErrParam, err)
		}
	}
	if math.IsNaN(bw) || math.IsInf(bw, 0) {
		return nil, nil, fmt.Errorf("graphssl: bandwidth %v: %w", bw, ErrParam)
	}
	k, err := kernel.New(cfg.kernel, bw)
	if err != nil {
		return nil, nil, fmt.Errorf("graphssl: kernel: %w: %v", ErrParam, err)
	}
	cfg.report.addStage("bandwidth", time.Since(bwStart))
	if err := ctxErr(cfg.ctx); err != nil {
		return nil, nil, err
	}
	return labeled, k, nil
}

// buildProblem is prepare's second half: the graph and problem stages.
func buildProblem(x [][]float64, y []float64, labeled []int, k *kernel.K, cfg config) (*core.Problem, *graph.Graph, error) {
	graphStart := time.Now()
	builder, err := newBuilder(k, cfg)
	if err != nil {
		return nil, nil, err
	}
	g, err := builder.Build(x)
	if err != nil {
		return nil, nil, fmt.Errorf("graphssl: graph: %w: %v", ErrParam, err)
	}
	cfg.report.addStage("graph", time.Since(graphStart))
	if err := ctxErr(cfg.ctx); err != nil {
		return nil, nil, err
	}

	problemStart := time.Now()
	p, err := core.NewProblem(g, labeled, y)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrParam, err)
	}
	cfg.report.addStage("problem", time.Since(problemStart))
	return p, g, nil
}

// newBuilder returns the fit's graph builder over kernel k.
func newBuilder(k *kernel.K, cfg config) (*graph.Builder, error) {
	builderOpts := []graph.Option{graph.WithWorkers(cfg.workers)}
	if cfg.knn > 0 {
		builderOpts = append(builderOpts, graph.WithKNN(cfg.knn))
	}
	builder, err := graph.NewBuilder(k, builderOpts...)
	if err != nil {
		return nil, fmt.Errorf("graphssl: graph builder: %w: %v", ErrParam, err)
	}
	return builder, nil
}

// checkResponses rejects a NaN or infinite response with ErrParam.
func checkResponses(y []float64) error {
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("graphssl: response %d is %v: %w", i, v, ErrParam)
		}
	}
	return nil
}

// translateCoreErr maps core sentinel errors onto the package's public ones.
func translateCoreErr(err error) error {
	switch {
	case errors.Is(err, core.ErrIsolated):
		return fmt.Errorf("%w: %v", ErrIsolated, err)
	case errors.Is(err, mat.ErrSingular), errors.Is(err, mat.ErrNotPositiveDefinite):
		// With non-negative weights the hard system D22−W22 (and V + λL)
		// is a positive definite M-matrix exactly when every unlabeled
		// component carries labeled mass, so a singular or failed Cholesky
		// factorization means some unlabeled point is numerically cut off
		// from the labels (weights underflowed to ~0).
		return fmt.Errorf("%w: system numerically singular: %v", ErrIsolated, err)
	case errors.Is(err, core.ErrParam):
		return fmt.Errorf("%w: %v", ErrParam, err)
	default:
		return fmt.Errorf("graphssl: %w", err)
	}
}
