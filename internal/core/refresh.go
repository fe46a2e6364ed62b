package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/precond"
	"repro/internal/sparse"
)

// RefreshKind identifies which rung of the online-refresh ladder produced
// an updated solution.
type RefreshKind int

const (
	// RefreshLabelValues re-solved after changing the response values of
	// already-labeled nodes: the system matrix is untouched, only the
	// right-hand side moves, and PCG restarts from the previous solution.
	RefreshLabelValues RefreshKind = iota + 1
	// RefreshWarmPCG solved the new system with PCG warm-started from the
	// previous solution (mapped through any renumbering).
	RefreshWarmPCG
	// RefreshFull means the caller fell back to an exact from-scratch
	// refit (the escalation terminal; core itself never performs it).
	RefreshFull
)

// String returns the rung name.
func (k RefreshKind) String() string {
	switch k {
	case RefreshLabelValues:
		return "label-values"
	case RefreshWarmPCG:
		return "warm-pcg"
	case RefreshFull:
		return "full-refit"
	default:
		return fmt.Sprintf("RefreshKind(%d)", int(k))
	}
}

// RefreshStats documents one online refresh: the ladder rung taken, the
// iterative work spent, and the verified relative residual ‖b − A f‖/‖b‖
// of the accepted solution, recomputed with one SpMV (exactly what
// Refresher.Residual returns), not PCG's recursively updated residual.
type RefreshStats struct {
	Kind       RefreshKind
	Solves     int
	Iterations int
	Residual   float64
}

// Refresher maintains a hard-criterion solution under streaming label and
// structure deltas without refitting from scratch. It owns the assembled
// block system of the current problem with its Jacobi preconditioner, the
// current solution, and the warm-start buffers (a held workspace plus an
// in-place destination vector), so repeated small refreshes reuse all
// solver scratch.
//
// The ladder, cheapest first:
//
//  1. UpdateLabelValues — only b changes; warm PCG from the old solution
//     against the unchanged matrix and preconditioner. Allocation-free
//     once warm.
//  2. AppendLabeled, AddLabels, and Rebase after structural edits — warm
//     PCG on the new system seeded from the previous solution.
//     AppendLabeled updates the held system in place; the other two
//     assemble it afresh.
//
// Nodes added by AppendLabeled sit past the held problem's graph (the
// tail): F, Labeled, Y and IsLabeled cover them, Problem does not, and
// the next Rebase folds them in.
//
// Every rung reports the verified relative residual of the accepted
// solution against the *new* system; the caller checks it against its
// tolerance and is expected to fall back to an exact refit (RefreshFull)
// on a miss or an error. After any returned error the refresher state is
// unspecified and must be rebuilt from a fresh solve.
//
// A Refresher is not safe for concurrent use.
type Refresher struct {
	p   *Problem
	sys *hardSystem
	jac *precond.Jacobi // preconditioner of sys.a

	f      []float64 // full solution over the graph's nodes, then the tail's labels
	fu     []float64 // reduced solution, aligned with p.unlabeled
	labIdx []int     // node → index into p.labeled, -1 otherwise

	ws      *sparse.Workspace
	scratch []float64 // residual-verification buffer, len M

	tol     float64
	maxIter int
	workers int
}

// ErrNeedsRebuild reports a refresh the held system cannot take in place;
// nothing was changed, and the caller rebuilds through Rebase.
var ErrNeedsRebuild = errors.New("core: refresh needs a rebuilt system")

// NewRefresher adopts an existing solution of p (its full score vector,
// as produced by SolveHard) and prepares the incremental machinery.
// tol is the inner PCG tolerance; maxIter ≤ 0 lets PCG choose its default
// cap.
func NewRefresher(p *Problem, f []float64, tol float64, maxIter, workers int) (*Refresher, error) {
	if p == nil {
		return nil, fmt.Errorf("core: nil problem: %w", ErrParam)
	}
	if len(f) != p.g.N() {
		return nil, fmt.Errorf("core: solution length %d, want %d: %w", len(f), p.g.N(), ErrParam)
	}
	if tol <= 0 {
		tol = 1e-10
	}
	if workers < 1 {
		workers = 1
	}
	sys, jac, err := buildRefreshSystem(p)
	if err != nil {
		return nil, err
	}
	r := &Refresher{
		ws:      sparse.NewWorkspace(),
		tol:     tol,
		maxIter: maxIter,
		workers: workers,
	}
	r.commit(p, sys, jac, nil)
	copy(r.f, f)
	for k, u := range p.unlabeled {
		r.fu[k] = f[u]
	}
	return r, nil
}

// buildRefreshSystem assembles p's hard system and its Jacobi
// preconditioner.
func buildRefreshSystem(p *Problem) (*hardSystem, *precond.Jacobi, error) {
	sys, err := buildHardSystem(p)
	if err != nil {
		return nil, nil, err
	}
	jac, err := precond.NewJacobi(sys.a)
	if err != nil {
		return nil, nil, fmt.Errorf("core: refresh preconditioner: %w: %w", ErrSolver, err)
	}
	return sys, jac, nil
}

// F returns the current full score vector, the tail's labels last,
// aliased: callers must not mutate it, and it is overwritten by the next
// refresh.
func (r *Refresher) F() []float64 { return r.f }

// Problem returns the current problem; it does not cover the tail.
func (r *Refresher) Problem() *Problem { return r.p }

// Labeled returns a copy of the labeled node indices: the problem's, then
// the tail's in append order.
func (r *Refresher) Labeled() []int {
	out := r.p.Labeled()
	for node := r.p.g.N(); node < len(r.f); node++ {
		out = append(out, node)
	}
	return out
}

// Y returns a copy of the responses, aligned with Labeled.
func (r *Refresher) Y() []float64 { return append(r.p.Y(), r.f[r.p.g.N():]...) }

// IsLabeled reports whether node is labeled; every tail node is.
func (r *Refresher) IsLabeled(node int) bool {
	return r.p.IsLabeled(node) || (node >= r.p.g.N() && node < len(r.f))
}

// Residual recomputes the true relative residual ‖b − A f_U‖/‖b‖ of the
// current solution (one SpMV into the held scratch buffer; the
// barrier-style accumulated-perturbation check callers use to decide
// whether to escalate to a full refit). Every rung reports it.
func (r *Refresher) Residual() float64 {
	s := r.scratch
	if err := r.sys.a.MulVecToWorkers(s, r.fu, r.workers); err != nil {
		return math.Inf(1)
	}
	for i := range s {
		s[i] = r.sys.b[i] - s[i]
	}
	bn := mat.Norm2(r.sys.b)
	if bn == 0 {
		bn = 1
	}
	return mat.Norm2(s) / bn
}

// commit installs a new problem, system and preconditioner, drops the
// tail, and (re)sizes the solution and index buffers. fu2, when non-nil,
// becomes the reduced solution.
func (r *Refresher) commit(p *Problem, sys *hardSystem, jac *precond.Jacobi, fu2 []float64) {
	r.p, r.sys, r.jac = p, sys, jac
	n := p.g.N()
	m := len(sys.b)
	if cap(r.f) < n {
		r.f = make([]float64, n)
	}
	r.f = r.f[:n]
	if fu2 != nil {
		r.fu = fu2
	} else {
		if cap(r.fu) < m {
			r.fu = make([]float64, m)
		}
		r.fu = r.fu[:m]
	}
	if cap(r.scratch) < m {
		r.scratch = make([]float64, m)
	}
	r.scratch = r.scratch[:m]
	if cap(r.labIdx) < n {
		r.labIdx = make([]int, n)
	}
	r.labIdx = r.labIdx[:n]
	for i := range r.labIdx {
		r.labIdx[i] = -1
	}
	for k, l := range p.labeled {
		r.labIdx[l] = k
	}
	// Rebuild the full vector from labels + reduced solution.
	for k, l := range p.labeled {
		r.f[l] = p.y[k]
	}
	for k, u := range p.unlabeled {
		r.f[u] = r.fu[k]
	}
}

// warmOpts assembles the held-buffer options for a warm PCG solve
// preconditioned by m into dst (which doubles as the starting guess).
func (r *Refresher) warmOpts(m *precond.Jacobi, dst []float64) sparse.PCGOptions {
	return sparse.PCGOptions{
		CGOptions: sparse.CGOptions{
			Tol:     r.tol,
			MaxIter: r.maxIter,
			X0:      dst,
			Workers: r.workers,
		},
		M:   m,
		Dst: dst,
		Ws:  r.ws,
	}
}

// UpdateLabelValues changes the responses of already-labeled nodes and
// re-solves. The system matrix is unchanged — only the right-hand side
// entries next to the touched labels move — so the solve warm-starts from
// the previous solution and typically converges in a handful of
// iterations. Allocation-free once the held buffers are warm.
func (r *Refresher) UpdateLabelValues(nodes []int, vals []float64) (RefreshStats, error) {
	var st RefreshStats
	st.Kind = RefreshLabelValues
	if len(nodes) != len(vals) {
		return st, fmt.Errorf("core: %d nodes, %d values: %w", len(nodes), len(vals), ErrParam)
	}
	if err := r.noTail(); err != nil {
		return st, err
	}
	w := r.p.g.Weights()
	for i, node := range nodes {
		v := vals[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return st, fmt.Errorf("core: non-finite label value: %w", ErrParam)
		}
		li := -1
		if node >= 0 && node < len(r.labIdx) {
			li = r.labIdx[node]
		}
		if li < 0 {
			return st, fmt.Errorf("core: node %d is not labeled: %w", node, ErrParam)
		}
		dy := v - r.p.y[li]
		if dy == 0 {
			continue
		}
		cols, ws := w.RowNNZ(node)
		for c, j := range cols {
			if k := r.sys.pos[j]; k >= 0 {
				r.sys.b[k] += ws[c] * dy
			}
		}
		r.p.y[li] = v
		r.f[node] = v
	}
	_, res, err := sparse.PCG(r.sys.a, r.sys.b, r.warmOpts(r.jac, r.fu))
	st.Solves, st.Iterations = 1, res.Iterations
	if err != nil {
		return st, fmt.Errorf("core: label-value refresh: %w: %w", ErrSolver, err)
	}
	for k, u := range r.p.unlabeled {
		r.f[u] = r.fu[k]
	}
	st.Residual = r.Residual()
	return st, nil
}

// AddLabels moves currently-unlabeled nodes into the labeled set with the
// given responses; the graph is unchanged. The new system is solved by
// warm PCG seeded from the previous solution.
func (r *Refresher) AddLabels(nodes []int, vals []float64) (RefreshStats, error) {
	var st RefreshStats
	if len(nodes) == 0 {
		st.Kind = RefreshLabelValues
		return st, nil
	}
	if len(nodes) != len(vals) {
		return st, fmt.Errorf("core: %d nodes, %d values: %w", len(nodes), len(vals), ErrParam)
	}
	if err := r.noTail(); err != nil {
		return st, err
	}
	seen := make(map[int]bool, len(nodes))
	for i, node := range nodes {
		if node < 0 || node >= r.p.g.N() || r.p.isLabeled[node] {
			return st, fmt.Errorf("core: node %d is not an unlabeled node: %w", node, ErrParam)
		}
		if seen[node] {
			return st, fmt.Errorf("core: duplicate node %d: %w", node, ErrParam)
		}
		seen[node] = true
		if v := vals[i]; math.IsNaN(v) || math.IsInf(v, 0) {
			return st, fmt.Errorf("core: non-finite label value: %w", ErrParam)
		}
	}
	labeled2 := make([]int, 0, len(r.p.labeled)+len(nodes))
	labeled2 = append(labeled2, r.p.labeled...)
	labeled2 = append(labeled2, nodes...)
	y2 := make([]float64, 0, len(labeled2))
	y2 = append(y2, r.p.y...)
	y2 = append(y2, vals...)
	p2, err := NewProblem(r.p.g, labeled2, y2)
	if err != nil {
		return st, err
	}

	sys2, jac2, err := buildRefreshSystem(p2)
	if err != nil {
		return st, err
	}
	// Seed from the old full solution: every new unknown was an unknown
	// before, at the same node index (the graph is unchanged).
	fu2 := make([]float64, len(sys2.b))
	for k, u := range p2.unlabeled {
		fu2[k] = r.f[u]
	}
	_, res, err := sparse.PCG(sys2.a, sys2.b, r.warmOpts(jac2, fu2))
	st.Kind = RefreshWarmPCG
	st.Solves, st.Iterations = 1, res.Iterations
	if err != nil {
		return st, fmt.Errorf("core: add-labels refresh: %w: %w", ErrSolver, err)
	}
	r.commit(p2, sys2, jac2, fu2)
	st.Residual = r.Residual()
	return st, nil
}

// noTail refuses the rungs that read graph rows while the tail is
// non-empty: the held graph lacks the tail's edges.
func (r *Refresher) noTail() error {
	if len(r.f) > r.p.g.N() {
		return ErrNeedsRebuild
	}
	return nil
}

// AppendLabeled adds labeled nodes past the held graph, to the tail, and
// re-solves by warm PCG on the held system updated in place. A labeled
// node adds no unknown: on each unlabeled neighbour u it adds its weight
// w to the degree d22[u] and w·y to b[u]. A's pattern and off-diagonal
// entries stay as they are; only the touched diagonal entries of A and
// of the Jacobi preconditioner are rewritten, so the update costs
// O(edges) and the solve is the only O(nnz) work.
//
// Batch node i gets index len(F())+i and response ys[i]; its edges are
// cols[ptr[i]:ptr[i+1]], to lower node indices, with non-negative weights
// vals[ptr[i]:ptr[i+1]].
//
// The result is bitwise what Rebase computes on the graph that holds the
// tail as its last nodes, each new node's weight last in every row it
// touches (as sparse.Overlay.Merge lays them out). There the degrees and
// b are left-to-right sums over each row (CSR.RowSums, buildHardSystem's
// column order), and adding the batch in index order rounds the held sums
// the same way. The weight goes to the degree, not to the diagonal: with
// a self-loop, A[u][u] is deg(u) − w_uu.
//
// It returns ErrNeedsRebuild, and changes nothing, when an edge reaches an
// unknown whose held degree is not positive: a zero degree stores no
// diagonal entry, so only a rebuild can place one. A system that passed
// the coverage check with non-negative weights has no such unknown. After
// a failed solve F and the tail are as they were, but the held system is
// stale; Rebase rebuilds it.
func (r *Refresher) AppendLabeled(ys []float64, ptr, cols []int, vals []float64) (RefreshStats, error) {
	st := RefreshStats{Kind: RefreshWarmPCG}
	if len(ptr) != len(ys)+1 || ptr[0] != 0 || ptr[len(ys)] != len(cols) || len(vals) != len(cols) {
		return st, fmt.Errorf("core: %d responses, %d row pointers, %d columns, %d weights: %w", len(ys), len(ptr), len(cols), len(vals), ErrParam)
	}
	base := len(r.f)
	for i, y := range ys {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			return st, fmt.Errorf("core: non-finite label value: %w", ErrParam)
		}
		if ptr[i] > ptr[i+1] || ptr[i+1] > len(cols) {
			return st, fmt.Errorf("core: appended node %d spans [%d, %d) of %d columns: %w", base+i, ptr[i], ptr[i+1], len(cols), ErrParam)
		}
		for c := ptr[i]; c < ptr[i+1]; c++ {
			j, w := cols[c], vals[c]
			if j < 0 || j >= base+i {
				return st, fmt.Errorf("core: appended node %d has an edge to node %d: %w", base+i, j, ErrParam)
			}
			if !(w >= 0) || math.IsInf(w, 1) {
				return st, fmt.Errorf("core: appended edge weight %v: %w", w, ErrParam)
			}
			if k := r.unknown(j); k >= 0 && !(r.sys.d22[k] > 0) {
				return st, fmt.Errorf("core: unknown at node %d has degree %v: %w", j, r.sys.d22[k], ErrNeedsRebuild)
			}
		}
	}

	for i, y := range ys {
		for c := ptr[i]; c < ptr[i+1]; c++ {
			k := r.unknown(cols[c])
			if k < 0 {
				continue
			}
			w := vals[c]
			r.sys.d22[k] += w
			r.sys.b[k] += w * y
			diag := r.sys.d22[k]
			if loop := r.sys.w22.At(k, k); loop != 0 {
				diag -= loop
			}
			// A positive degree always stores the diagonal entry.
			_ = r.sys.a.SetAt(k, k, diag)
			r.jac.SetDiag(k, diag)
		}
	}
	r.f = append(r.f, ys...)

	_, res, err := sparse.PCG(r.sys.a, r.sys.b, r.warmOpts(r.jac, r.fu))
	st.Solves, st.Iterations = 1, res.Iterations
	if err != nil {
		r.f = r.f[:base]
		return st, fmt.Errorf("core: append-labeled refresh: %w: %w", ErrSolver, err)
	}
	for k, u := range r.p.unlabeled {
		r.f[u] = r.fu[k]
	}
	st.Residual = r.Residual()
	return st, nil
}

// unknown returns node's position among the unknowns, or -1 for labeled
// and tail nodes.
func (r *Refresher) unknown(node int) int {
	if node < len(r.sys.pos) {
		return r.sys.pos[node]
	}
	return -1
}

// Rebase replaces the problem after structural edits (point inserts,
// deletes, graph rebuilds) and re-solves with a warm start mapped through
// the renumbering: oldNode[u] is the previous node index of new node u,
// or -1 for nodes that did not exist. Brand-new unknowns are seeded with
// the degree-weighted average of their already-seeded neighbours (labels
// and surviving old values), a deterministic single pass in node order.
func (r *Refresher) Rebase(p2 *Problem, oldNode []int) (RefreshStats, error) {
	var st RefreshStats
	st.Kind = RefreshWarmPCG
	if p2 == nil {
		return st, fmt.Errorf("core: nil problem: %w", ErrParam)
	}
	n2 := p2.g.N()
	if len(oldNode) != n2 {
		return st, fmt.Errorf("core: oldNode length %d, want %d: %w", len(oldNode), n2, ErrParam)
	}
	sys2, jac2, err := buildRefreshSystem(p2)
	if err != nil {
		return st, err
	}

	// Full seed vector over the new nodes: labels exactly, surviving
	// nodes from the old solution, new nodes by neighbour average.
	seed := make([]float64, n2)
	known := make([]bool, n2)
	for k2, l := range p2.labeled {
		seed[l] = p2.y[k2]
		known[l] = true
	}
	for u := 0; u < n2; u++ {
		if known[u] {
			continue
		}
		if o := oldNode[u]; o >= 0 && o < len(r.f) {
			seed[u] = r.f[o]
			known[u] = true
		}
	}
	w2 := p2.g.Weights()
	for u := 0; u < n2; u++ {
		if known[u] {
			continue
		}
		cols, vals := w2.RowNNZ(u)
		var num, den float64
		for c, j := range cols {
			if known[j] {
				num += vals[c] * seed[j]
				den += vals[c]
			}
		}
		if den > 0 {
			seed[u] = num / den
		}
	}

	fu2 := make([]float64, len(sys2.b))
	for k2, u := range p2.unlabeled {
		fu2[k2] = seed[u]
	}
	_, res, err := sparse.PCG(sys2.a, sys2.b, r.warmOpts(jac2, fu2))
	st.Solves, st.Iterations = 1, res.Iterations
	if err != nil {
		return st, fmt.Errorf("core: rebase refresh: %w: %w", ErrSolver, err)
	}
	r.commit(p2, sys2, jac2, fu2)
	st.Residual = r.Residual()
	return st, nil
}
