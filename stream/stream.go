// Package stream is the continuous-operation subsystem: it keeps a
// hard-criterion fit alive under a trickle of point inserts, deletes, and
// label updates without refitting from scratch on every event.
//
// Three layers cooperate:
//
//   - internal/spatial.SideIndex gives incremental fixed-radius candidate
//     queries (immutable base index + bounded side buffer, amortized
//     rebuild);
//   - internal/sparse.Overlay accumulates appended graph rows and a dead
//     mask over the immutable weight matrix, merging to a compact CSR at
//     each structural refresh;
//   - internal/core.Refresher maintains the solution through the
//     escalation ladder: warm right-hand-side restarts for label value
//     changes, warm-started PCG for newly labeled points and structural
//     edits, and an exact from-scratch refit as the terminal rung. Newly
//     inserted labeled points add no unknown, so when they are the only
//     pending edits the warm PCG runs on the held system updated in place,
//     and the overlay merge waits for the next structural refresh.
//
// The determinism contract carries over from the batch pipeline: after
// Compact, the state is bitwise-identical to graphssl.Fit on the same
// live points, for every worker count. Between compactions the solution
// tracks the exact one within the configured refresh tolerance.
//
// Streaming maintenance needs a fixed, compact-support kernel (Gaussian
// would connect every pair, and a data-dependent bandwidth would drift as
// points arrive), the hard criterion (λ=0), and radius graphs (kNN
// symmetrization has no cheap incremental form).
package stream

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	graphssl "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/sparse"
	"repro/internal/spatial"
)

// Config parameterizes an Ingestor.
type Config struct {
	// Kernel must have compact support (Uniform, Epanechnikov,
	// Triangular, Tricube); Bandwidth is the fixed kernel bandwidth
	// (there is no data-dependent rule in streaming mode).
	Kernel    graphssl.Kernel
	Bandwidth float64
	// Workers bounds shared-memory parallelism. Results are
	// bitwise-identical across worker counts.
	Workers int
	// Tol is the inner iterative-solver tolerance (default 1e-10, the
	// batch pipeline's default).
	Tol float64
	// MaxIter caps solver iterations (0 = solver default).
	MaxIter int
	// RefreshTol is the acceptance threshold on the verified relative
	// residual ‖b − A f‖/‖b‖ of a refreshed solution; a miss escalates to
	// an exact refit (default 1e-8).
	RefreshTol float64
	// RebuildFrac is the side-buffer fraction triggering an amortized
	// spatial-index rebuild (default spatial.DefaultRebuildFrac).
	RebuildFrac float64
	// CompactFrac is the dead-id fraction (dead / live) above which a
	// refresh escalates to a full compaction (default 0.5).
	CompactFrac float64
}

func (c *Config) fill() error {
	if !c.Kernel.CompactSupport() {
		return fmt.Errorf("stream: kernel %v has unbounded support; streaming needs a compact kernel: %w", c.Kernel, graphssl.ErrParam)
	}
	if !(c.Bandwidth > 0) || math.IsInf(c.Bandwidth, 0) {
		return fmt.Errorf("stream: bandwidth %v (streaming needs a fixed positive bandwidth): %w", c.Bandwidth, graphssl.ErrParam)
	}
	if c.Tol <= 0 {
		c.Tol = 1e-10
	}
	if c.RefreshTol <= 0 {
		c.RefreshTol = 1e-8
	}
	if c.RebuildFrac <= 0 {
		c.RebuildFrac = spatial.DefaultRebuildFrac
	}
	if c.CompactFrac <= 0 {
		c.CompactFrac = 0.5
	}
	return nil
}

// RefreshOutcome documents one Refresh (or the refit it escalated to).
type RefreshOutcome struct {
	// Kind is the ladder rung that produced the accepted solution:
	// "none", "label-values", "warm-pcg", or "full-refit".
	Kind string
	// Applied work since the previous refresh.
	Inserts, Deletes, NewLabels, ValueChanges int
	// Solves and Iterations report the iterative work spent.
	Solves, Iterations int
	// Residual is the verified relative residual of the accepted
	// solution (0 for an exact refit).
	Residual float64
	// Escalated reports that a cheaper rung was abandoned; Reason says
	// why.
	Escalated bool
	Reason    string
	// Remap is non-nil when the refresh escalated to a compaction, which
	// renumbers ids: Remap[oldID] = new id, or -1 for dead ids. Callers
	// holding ids must apply it (see also Compact).
	Remap []int
	// Duration is the refresh wall time.
	Duration time.Duration
}

// Stats is a point-in-time summary of an Ingestor.
type Stats struct {
	Live, Dead, Labeled                     int
	PendingInserts, PendingDeletes          int
	PendingNewLabels, PendingValueChanges   int
	Refreshes, LabelRefreshes               int
	WarmRefreshes, Compactions, Escalations int
	SideRebuilds                            int
	Last                                    RefreshOutcome
}

// Ingestor is a live hard-criterion fit under streaming edits. Insert,
// Delete, and Label record edits cheaply; Refresh folds the pending
// edits into the solution through the cheapest safe rung of the ladder;
// Compact rebuilds everything from scratch (bitwise-equal to
// graphssl.Fit) and renumbers ids densely.
//
// Point ids are dense and stable between compactions: Insert returns the
// next id, Delete retires one, Compact renumbers live ids in order and
// returns the mapping. An Ingestor is not safe for concurrent use.
type Ingestor struct {
	cfg  Config
	kern *kernel.K
	dim  int

	side *spatial.SideIndex // id-indexed, in lockstep with ov
	ov   *sparse.Overlay
	ref  *core.Refresher

	// nodes and nodeOf cover the refresher's merged graph and its tail,
	// the labeled inserts folded in place since the last merge; nodeOf
	// spans every id folded so far, so pending inserts start at
	// len(nodeOf).
	nodes  []int // node → id of the current problem
	nodeOf []int // id → node, -1 when not in the current problem

	labelOf  []bool    // id → currently labeled (user intent)
	yOf      []float64 // id → response (meaningful when labelOf)
	valDirty []bool    // id → pending value change on a problem-labeled id

	labeledSeq  []int // ids in labeling order (may contain dead/unlabeled)
	newLabels   []int // ids labeled since the last refresh, not yet in the problem
	pendingVals []int // problem-labeled ids with changed values

	insertsSince, deletesSince int
	unlabeledSince             int  // pending inserts without a label
	rebuild                    bool // a failed in-place refresh left the held system stale
	labeledCount               int

	// Publish cursor for delta snapshots.
	pubCount        int // labeledSeq prefix already published
	maxPubID        int // largest published labeled id
	relabelSincePub bool
	labDelSincePub  bool
	compactSincePub bool

	stats Stats

	candBuf  []int32
	colsBuf  []int
	valsBuf  []float64
	nodesBuf []int
	lvalsBuf []float64
	ptrBuf   []int
}

// New fits the initial point set exactly (bitwise-equal to graphssl.Fit
// with the same kernel, bandwidth, and workers) and prepares the
// streaming machinery. x, y, labeled follow the Fit convention: labeled
// holds point indices, y aligns with labeled. The point slices are
// retained by reference.
func New(x [][]float64, y []float64, labeled []int, cfg Config) (*Ingestor, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	k, err := kernel.New(cfg.Kernel, cfg.Bandwidth)
	if err != nil {
		return nil, fmt.Errorf("stream: kernel: %w: %v", graphssl.ErrParam, err)
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("stream: no input points: %w", graphssl.ErrParam)
	}
	in := &Ingestor{cfg: cfg, kern: k, dim: len(x[0]), maxPubID: -1}

	p, g, sol, err := in.fullFit(x, labeled, y)
	if err != nil {
		return nil, err
	}
	side, err := spatial.NewSideIndex(x, cfg.Bandwidth, cfg.RebuildFrac, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("stream: side index: %w", err)
	}
	ov, err := sparse.NewOverlay(g.Weights())
	if err != nil {
		return nil, fmt.Errorf("stream: overlay: %w", err)
	}
	ref, err := core.NewRefresher(p, sol.F, cfg.Tol, cfg.MaxIter, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("stream: refresher: %w", err)
	}
	in.side, in.ov, in.ref = side, ov, ref

	n := len(x)
	in.nodes = identity(n)
	in.nodeOf = identity(n)
	in.labelOf = make([]bool, n)
	in.yOf = make([]float64, n)
	in.valDirty = make([]bool, n)
	in.labeledSeq = append([]int(nil), labeled...)
	for i, id := range labeled {
		in.labelOf[id] = true
		in.yOf[id] = y[i]
		if id > in.maxPubID {
			in.maxPubID = id
		}
	}
	in.labeledCount = len(labeled)
	// The initial labels belong to the initial full snapshot, not a delta:
	// the publish cursor starts past them.
	in.pubCount = len(in.labeledSeq)
	return in, nil
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// fullFit runs the exact batch pipeline over the given points: the same
// builder, problem, and solver invocation graphssl.Fit performs for a
// fixed-bandwidth compact-kernel fit, so the result is bitwise-identical
// to Fit on the same inputs.
func (in *Ingestor) fullFit(x [][]float64, labeled []int, y []float64) (*core.Problem, *graph.Graph, *core.Solution, error) {
	b, err := graph.NewBuilder(in.kern, graph.WithWorkers(in.cfg.Workers))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("stream: graph builder: %w: %v", graphssl.ErrParam, err)
	}
	g, err := b.Build(x)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("stream: graph: %w: %v", graphssl.ErrParam, err)
	}
	p, err := core.NewProblem(g, labeled, y)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("stream: %w: %v", graphssl.ErrParam, err)
	}
	sol, err := core.SolveHard(p,
		core.WithMethod(core.MethodAuto),
		core.WithTolerance(in.cfg.Tol),
		core.WithMaxIter(in.cfg.MaxIter),
		core.WithWorkers(in.cfg.Workers),
		core.WithPreconditioner(core.PrecondAuto),
	)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("stream: solve: %w", err)
	}
	return p, g, sol, nil
}

// Dim returns the input dimension.
func (in *Ingestor) Dim() int { return in.dim }

// Live returns the live point count (including pending inserts).
func (in *Ingestor) Live() int { return in.side.Live() }

// Alive reports whether id is live.
func (in *Ingestor) Alive(id int) bool { return in.side.Alive(id) }

// Insert adds an unlabeled point and returns its id. The point's graph
// adjacency is computed immediately (one candidate query plus one kernel
// evaluation per candidate); the solution is refreshed lazily by the
// next Refresh.
func (in *Ingestor) Insert(p []float64) (int, error) {
	return in.insert(p, false, 0)
}

// InsertLabeled adds a labeled point and returns its id.
func (in *Ingestor) InsertLabeled(p []float64, y float64) (int, error) {
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return 0, fmt.Errorf("stream: non-finite response: %w", graphssl.ErrParam)
	}
	return in.insert(p, true, y)
}

func (in *Ingestor) insert(p []float64, hasLabel bool, y float64) (int, error) {
	if len(p) != in.dim {
		return 0, fmt.Errorf("stream: point dim %d, want %d: %w", len(p), in.dim, graphssl.ErrParam)
	}
	// Candidates against the pre-insert index: the new point never links
	// to itself (the builder drops self-loops by default).
	in.candBuf = in.side.Candidates(p, in.candBuf)
	cand := in.candBuf
	sort.Slice(cand, func(i, j int) bool { return cand[i] < cand[j] })
	in.colsBuf = in.colsBuf[:0]
	in.valsBuf = in.valsBuf[:0]
	for _, c := range cand {
		d2 := kernel.Dist2(p, in.side.Point(int(c)))
		if w := in.kern.WeightDist2(d2); w > 0 {
			in.colsBuf = append(in.colsBuf, int(c))
			in.valsBuf = append(in.valsBuf, w)
		}
	}
	id, err := in.side.Insert(p)
	if err != nil {
		return 0, fmt.Errorf("stream: insert: %w", err)
	}
	ovID, err := in.ov.AppendRow(in.colsBuf, in.valsBuf)
	if err != nil {
		return 0, fmt.Errorf("stream: overlay append: %w", err)
	}
	if ovID != id {
		return 0, fmt.Errorf("stream: id drift: spatial %d vs overlay %d", id, ovID)
	}
	in.labelOf = append(in.labelOf, hasLabel)
	in.yOf = append(in.yOf, y)
	in.valDirty = append(in.valDirty, false)
	in.insertsSince++
	if !hasLabel {
		in.unlabeledSince++
		return id, nil
	}
	in.labeledSeq = append(in.labeledSeq, id)
	in.labeledCount++
	return id, nil
}

// Delete retires a live point. Structural: folded in by the next
// Refresh.
func (in *Ingestor) Delete(id int) error {
	if err := in.side.Delete(id); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	if err := in.ov.Delete(id); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	if in.labelOf[id] {
		in.labelOf[id] = false
		in.labeledCount--
		in.labDelSincePub = true
	}
	in.deletesSince++
	return nil
}

// Label sets (or changes) the response of a live point. Newly labeled
// points take the warm-PCG rung at the next Refresh; value changes on
// already-labeled points take the cheapest rung (a warm right-hand-side
// restart) and are allocation-free once buffers are warm.
func (in *Ingestor) Label(id int, y float64) error {
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return fmt.Errorf("stream: non-finite response: %w", graphssl.ErrParam)
	}
	if !in.side.Alive(id) {
		return fmt.Errorf("stream: label of dead or unknown id %d: %w", id, graphssl.ErrParam)
	}
	if in.labelOf[id] {
		// Value change on an existing label.
		if in.yOf[id] == y {
			return nil
		}
		in.yOf[id] = y
		in.relabelSincePub = true
		if in.problemLabeled(id) && !in.valDirty[id] {
			in.valDirty[id] = true
			in.pendingVals = append(in.pendingVals, id)
		}
		return nil
	}
	in.labelOf[id] = true
	in.yOf[id] = y
	in.labeledCount++
	in.labeledSeq = append(in.labeledSeq, id)
	if in.problemNode(id) >= 0 {
		in.newLabels = append(in.newLabels, id)
	}
	// Ids not yet in the problem are fresh inserts; the pending
	// structural refresh picks their labels up from labelOf.
	return nil
}

// problemNode returns the current problem's node index of id, or -1.
func (in *Ingestor) problemNode(id int) int {
	if id < 0 || id >= len(in.nodeOf) {
		return -1
	}
	return in.nodeOf[id]
}

// problemLabeled reports whether id is labeled in the current problem or
// its tail.
func (in *Ingestor) problemLabeled(id int) bool {
	node := in.problemNode(id)
	return node >= 0 && in.ref.IsLabeled(node)
}

// Refresh folds all pending edits into the solution via the cheapest
// safe rung and returns what it did. With no pending edits it returns
// Kind "none" without touching the solver. When labeled inserts are the
// only pending edits, they update the held system in place; any other
// edit while the tail of such inserts is unmerged takes the structural
// rung, because the value and label rungs read graph rows the tail is
// missing from. On a solver failure or a residual miss it escalates to
// an exact refit (Compact); if even the refit fails the error is
// returned and pending state is retained. An unlabeled component with no
// labeled node (core.ErrIsolated) is returned at once, pending state
// retained: the refit would fail the same way.
func (in *Ingestor) Refresh() (RefreshOutcome, error) {
	start := time.Now()
	var rr RefreshOutcome
	rr.Inserts, rr.Deletes = in.insertsSince, in.deletesSince
	rr.NewLabels, rr.ValueChanges = len(in.newLabels), len(in.pendingVals)

	labelEdits := len(in.newLabels) > 0 || len(in.pendingVals) > 0
	var (
		st  core.RefreshStats
		err error
	)
	switch {
	case in.insertsSince > 0 && in.unlabeledSince == 0 && in.deletesSince == 0 && !labelEdits && !in.rebuild:
		st, err = in.refreshAppend()
	case in.insertsSince > 0 || in.deletesSince > 0 || in.rebuild || (labelEdits && len(in.nodes) > in.ref.Problem().Graph().N()):
		st, err = in.refreshStructural()
	case len(in.newLabels) > 0:
		st, err = in.refreshLabels()
	case len(in.pendingVals) > 0:
		st, err = in.refreshValues()
	default:
		rr.Kind = "none"
		rr.Duration = time.Since(start)
		return rr, nil
	}

	in.stats.Refreshes++
	rr.Solves, rr.Iterations = st.Solves, st.Iterations
	rr.Residual = st.Residual

	if err == nil && st.Residual > in.cfg.RefreshTol {
		err = fmt.Errorf("stream: refreshed residual %.3g above tolerance %.3g", st.Residual, in.cfg.RefreshTol)
	}
	if err == nil && in.deadFraction() > in.cfg.CompactFrac {
		rr.Escalated = true
		rr.Reason = fmt.Sprintf("dead fraction %.2f above compaction threshold", in.deadFraction())
		err = errEscalate
	}
	if err != nil {
		// Terminal rung: exact refit. Compact folds every pending edit
		// from first principles, so it recovers from any refresher state
		// but an isolated component: it would fit the same live points
		// with the same labels and fail the same way.
		if errors.Is(err, core.ErrIsolated) {
			rr.Duration = time.Since(start)
			return rr, err
		}
		if err != errEscalate {
			rr.Escalated = true
			rr.Reason = err.Error()
		}
		remap, cerr := in.compact()
		if cerr != nil {
			rr.Duration = time.Since(start)
			return rr, cerr
		}
		rr.Remap = remap
		in.stats.Escalations++
		rr.Kind = core.RefreshFull.String()
		rr.Residual = 0
		rr.Duration = time.Since(start)
		in.stats.Last = rr
		return rr, nil
	}

	rr.Kind = st.Kind.String()
	switch st.Kind {
	case core.RefreshLabelValues:
		in.stats.LabelRefreshes++
	case core.RefreshWarmPCG:
		in.stats.WarmRefreshes++
	}
	rr.Duration = time.Since(start)
	in.stats.Last = rr
	return rr, nil
}

// errEscalate is an internal signal: no failure, but policy demands the
// terminal rung.
var errEscalate = fmt.Errorf("stream: escalate to compaction")

// refreshValues is the cheapest rung: only right-hand-side entries move.
// Allocation-free once the reused buffers are warm.
func (in *Ingestor) refreshValues() (core.RefreshStats, error) {
	in.nodesBuf = in.nodesBuf[:0]
	in.lvalsBuf = in.lvalsBuf[:0]
	for _, id := range in.pendingVals {
		in.valDirty[id] = false
		if !in.labelOf[id] || !in.side.Alive(id) {
			continue
		}
		in.nodesBuf = append(in.nodesBuf, in.nodeOf[id])
		in.lvalsBuf = append(in.lvalsBuf, in.yOf[id])
	}
	in.pendingVals = in.pendingVals[:0]
	if len(in.nodesBuf) == 0 {
		return core.RefreshStats{Kind: core.RefreshLabelValues}, nil
	}
	return in.ref.UpdateLabelValues(in.nodesBuf, in.lvalsBuf)
}

// refreshLabels moves newly labeled existing nodes into the labeled set
// with a warm PCG solve of the new system. Pending value changes ride
// along first (same matrix, one extra cheap solve).
func (in *Ingestor) refreshLabels() (core.RefreshStats, error) {
	var pre core.RefreshStats
	if len(in.pendingVals) > 0 {
		var err error
		pre, err = in.refreshValues()
		if err != nil {
			return pre, err
		}
	}
	in.nodesBuf = in.nodesBuf[:0]
	in.lvalsBuf = in.lvalsBuf[:0]
	for _, id := range in.newLabels {
		if !in.labelOf[id] || !in.side.Alive(id) {
			continue
		}
		in.nodesBuf = append(in.nodesBuf, in.nodeOf[id])
		in.lvalsBuf = append(in.lvalsBuf, in.yOf[id])
	}
	in.newLabels = in.newLabels[:0]
	if len(in.nodesBuf) == 0 {
		return pre, nil
	}
	st, err := in.ref.AddLabels(in.nodesBuf, in.lvalsBuf)
	st.Solves += pre.Solves
	st.Iterations += pre.Iterations
	return st, err
}

// refreshAppend folds the pending labeled inserts into the held system in
// place (core.Refresher.AppendLabeled) without merging the overlay: the
// new ids, ascending, become the refresher's tail. Their edges are read
// from the overlay rows they were issued with; every column is an older
// id, live because no delete is pending. It falls back to the structural
// rung when the held system cannot take the update.
func (in *Ingestor) refreshAppend() (core.RefreshStats, error) {
	first, next := len(in.nodeOf), in.ov.Rows()
	in.ptrBuf = append(in.ptrBuf[:0], 0)
	in.colsBuf, in.valsBuf = in.colsBuf[:0], in.valsBuf[:0]
	in.lvalsBuf = in.lvalsBuf[:0]
	for id := first; id < next; id++ {
		cols, vals := in.ov.AppendedRow(id)
		for _, j := range cols {
			if j < first {
				in.colsBuf = append(in.colsBuf, in.nodeOf[j])
			} else { // an earlier insert of this batch
				in.colsBuf = append(in.colsBuf, len(in.nodes)+j-first)
			}
		}
		in.valsBuf = append(in.valsBuf, vals...)
		in.ptrBuf = append(in.ptrBuf, len(in.colsBuf))
		in.lvalsBuf = append(in.lvalsBuf, in.yOf[id])
	}
	st, err := in.ref.AppendLabeled(in.lvalsBuf, in.ptrBuf, in.colsBuf, in.valsBuf)
	if errors.Is(err, core.ErrNeedsRebuild) {
		return in.refreshStructural()
	}
	if err != nil {
		in.rebuild = true
		return st, err
	}
	for id := first; id < next; id++ {
		in.nodeOf = append(in.nodeOf, len(in.nodes))
		in.nodes = append(in.nodes, id)
	}
	in.clearPending()
	return st, nil
}

// refreshStructural merges the overlay, rebuilds graph and problem over
// the live ids, and re-solves with a warm start mapped through the
// renumbering. Label and value edits, and the tail of labeled inserts
// folded in place, are folded in for free (labelOf and yOf are the source
// of truth for the rebuilt problem).
func (in *Ingestor) refreshStructural() (core.RefreshStats, error) {
	var st core.RefreshStats
	w, ids, err := in.ov.Merge()
	if err != nil {
		return st, err
	}
	g2, err := graph.FromWeights(w)
	if err != nil {
		return st, err
	}
	idToNode := make([]int, in.ov.Rows())
	for i := range idToNode {
		idToNode[i] = -1
	}
	for node, id := range ids {
		idToNode[id] = node
	}
	labeledNodes, yVals := in.labeledNodes(idToNode)
	p2, err := core.NewProblem(g2, labeledNodes, yVals)
	if err != nil {
		return st, err
	}
	oldNode := make([]int, len(ids))
	for node, id := range ids {
		oldNode[node] = in.problemNode(id)
	}
	st, err = in.ref.Rebase(p2, oldNode)
	if err != nil {
		return st, err
	}
	in.nodes, in.nodeOf = ids, idToNode
	in.rebuild = false
	in.clearPending()
	return st, nil
}

// labeledNodes maps the live labeled ids (in labeling order) to node
// indices under the given id→node mapping.
func (in *Ingestor) labeledNodes(idToNode []int) ([]int, []float64) {
	nodes := make([]int, 0, in.labeledCount)
	vals := make([]float64, 0, in.labeledCount)
	for _, id := range in.labeledSeq {
		if !in.labelOf[id] || !in.side.Alive(id) {
			continue
		}
		if node := idToNode[id]; node >= 0 {
			nodes = append(nodes, node)
			vals = append(vals, in.yOf[id])
		}
	}
	return nodes, vals
}

func (in *Ingestor) clearPending() {
	for _, id := range in.pendingVals {
		in.valDirty[id] = false
	}
	in.pendingVals = in.pendingVals[:0]
	in.newLabels = in.newLabels[:0]
	in.insertsSince, in.deletesSince, in.unlabeledSince = 0, 0, 0
}

func (in *Ingestor) deadFraction() float64 {
	live := in.side.Live()
	if live == 0 {
		return 0
	}
	return float64(in.side.N()-live) / float64(live)
}

// Compact rebuilds everything from scratch over the live points —
// bitwise-identical to graphssl.Fit on the same point set — and
// renumbers ids densely in id order. It folds in all pending edits.
// Returns remap with remap[oldID] = new id, or -1 for dead ids.
func (in *Ingestor) Compact() ([]int, error) {
	return in.compact()
}

func (in *Ingestor) compact() ([]int, error) {
	total := in.side.N()
	remap := make([]int, total)
	xLive := make([][]float64, 0, in.side.Live())
	for id := 0; id < total; id++ {
		if !in.side.Alive(id) {
			remap[id] = -1
			continue
		}
		remap[id] = len(xLive)
		xLive = append(xLive, in.side.Point(id))
	}

	labeledNodes, yVals := in.labeledNodes(remap)
	p, g, sol, err := in.fullFit(xLive, labeledNodes, yVals)
	if err != nil {
		return nil, err
	}
	side, err := spatial.NewSideIndex(xLive, in.cfg.Bandwidth, in.cfg.RebuildFrac, in.cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("stream: side index: %w", err)
	}
	ov, err := sparse.NewOverlay(g.Weights())
	if err != nil {
		return nil, fmt.Errorf("stream: overlay: %w", err)
	}
	ref, err := core.NewRefresher(p, sol.F, in.cfg.Tol, in.cfg.MaxIter, in.cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("stream: refresher: %w", err)
	}

	n := len(xLive)
	labelOf := make([]bool, n)
	yOf := make([]float64, n)
	seq := make([]int, 0, in.labeledCount)
	for _, id := range in.labeledSeq {
		if !in.labelOf[id] || remap[id] < 0 {
			continue
		}
		nid := remap[id]
		labelOf[nid] = true
		yOf[nid] = in.yOf[id]
		seq = append(seq, nid)
	}

	in.side, in.ov, in.ref = side, ov, ref
	in.nodes = identity(n)
	in.nodeOf = identity(n)
	in.labelOf, in.yOf = labelOf, yOf
	in.valDirty = make([]bool, n)
	in.labeledSeq = seq
	in.labeledCount = len(seq)
	in.pendingVals = in.pendingVals[:0]
	in.newLabels = in.newLabels[:0]
	in.insertsSince, in.deletesSince, in.unlabeledSince = 0, 0, 0
	in.rebuild = false
	in.compactSincePub = true
	in.pubCount = len(seq)
	in.stats.Compactions++
	return remap, nil
}

// Scores returns a copy of the full score vector in node order (live ids
// ascending), as of the last Refresh/Compact.
func (in *Ingestor) Scores() []float64 {
	return append([]float64(nil), in.ref.F()...)
}

// ScoreOf returns the fitted score of a live id as of the last refresh,
// or NaN when the id is not in the refreshed problem yet.
func (in *Ingestor) ScoreOf(id int) float64 {
	node := in.problemNode(id)
	if node < 0 {
		return math.NaN()
	}
	return in.ref.F()[node]
}

// Residual recomputes the true relative residual of the current
// solution against the current system (one SpMV).
func (in *Ingestor) Residual() float64 { return in.ref.Residual() }

// Stats returns a snapshot of the counters.
func (in *Ingestor) Stats() Stats {
	s := in.stats
	s.Live = in.side.Live()
	s.Dead = in.side.N() - s.Live
	s.Labeled = in.labeledCount
	s.PendingInserts, s.PendingDeletes = in.insertsSince, in.deletesSince
	s.PendingNewLabels = len(in.newLabels)
	s.PendingValueChanges = len(in.pendingVals)
	s.SideRebuilds = in.side.Rebuilds()
	return s
}

// Report surfaces the last refresh in the package's diagnostic Report
// shape (allocates; not for the hot path).
func (in *Ingestor) Report() *graphssl.Report {
	last := in.stats.Last
	return &graphssl.Report{
		Bandwidth:  in.cfg.Bandwidth,
		Solver:     graphssl.SolverCG,
		Iterations: last.Iterations,
		Residual:   last.Residual,
		Refresh: &graphssl.RefreshInfo{
			Kind:         last.Kind,
			Solves:       last.Solves,
			Iterations:   last.Iterations,
			Residual:     last.Residual,
			Escalated:    last.Escalated,
			Reason:       last.Reason,
			Inserts:      last.Inserts,
			Deletes:      last.Deletes,
			NewLabels:    last.NewLabels,
			ValueChanges: last.ValueChanges,
		},
	}
}

// Snapshot freezes the last refreshed state into a serving snapshot
// (deep copies, like Result.Snapshot). Pending un-refreshed edits are
// not included: call Refresh first.
func (in *Ingestor) Snapshot() (*graphssl.ModelSnapshot, error) {
	x := make([][]float64, len(in.nodes))
	for node, id := range in.nodes {
		x[node] = append([]float64(nil), in.side.Point(id)...)
	}
	return &graphssl.ModelSnapshot{
		X:         x,
		Y:         in.ref.Y(),
		Labeled:   in.ref.Labeled(),
		Scores:    append([]float64(nil), in.ref.F()...),
		Kernel:    in.cfg.Kernel,
		Bandwidth: in.cfg.Bandwidth,
	}, nil
}

// TakeDelta returns the labeled points added since the last publish as
// an appendable snapshot delta, advancing the publish cursor. It returns
// ok=false — and the caller must fall back to a full Snapshot republish
// — when the span is not purely appendable: a label value changed, a
// labeled point was deleted, a compaction renumbered ids, or a label
// landed on an old point (which would break the anchor ordering).
func (in *Ingestor) TakeDelta() (*graphssl.SnapshotDelta, bool) {
	if in.relabelSincePub || in.labDelSincePub || in.compactSincePub {
		return nil, false
	}
	span := in.labeledSeq[in.pubCount:]
	prev := in.maxPubID
	for _, id := range span {
		if id <= prev || !in.labelOf[id] || !in.side.Alive(id) {
			return nil, false
		}
		prev = id
	}
	if len(span) == 0 {
		return &graphssl.SnapshotDelta{}, true
	}
	d := &graphssl.SnapshotDelta{
		X: make([][]float64, len(span)),
		Y: make([]float64, len(span)),
	}
	for i, id := range span {
		d.X[i] = append([]float64(nil), in.side.Point(id)...)
		d.Y[i] = in.yOf[id]
	}
	in.pubCount = len(in.labeledSeq)
	in.maxPubID = prev
	return d, true
}

// MarkPublished records that the caller republished the full snapshot:
// the publish cursor advances and the delta-breaking flags reset.
func (in *Ingestor) MarkPublished() {
	in.pubCount = len(in.labeledSeq)
	in.relabelSincePub, in.labDelSincePub, in.compactSincePub = false, false, false
	in.maxPubID = -1
	for _, id := range in.labeledSeq {
		if in.labelOf[id] && in.side.Alive(id) && id > in.maxPubID {
			in.maxPubID = id
		}
	}
}
