package core

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/sparse"
)

// appendWorld is the ground truth of TestRefresherAppendLabeledMatchesRebase:
// a symmetric overlay of weighted nodes with labels, edited the way the
// streaming ingestor edits it. Nodes 0..hubs-1 are labeled hubs that are
// never deleted or unlabeled, and every node has an edge to one of them,
// so deletes never isolate an unlabeled node.
type appendWorld struct {
	rng  *rand.Rand
	ov   *sparse.Overlay
	lab  []bool
	y    []float64
	seq  []int // labeling order (ids; may hold dead ones)
	hubs int
}

func newAppendWorld(t *testing.T, n0, hubs int, loops bool, seed int64) *appendWorld {
	t.Helper()
	w := &appendWorld{rng: rand.New(rand.NewSource(seed)), hubs: hubs}
	coo := sparse.NewCOO(n0, n0)
	add := func(i, j int, v float64) {
		var err error
		if i == j {
			err = coo.Add(i, i, v)
		} else {
			err = coo.AddSym(i, j, v)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := hubs; i < n0; i++ {
		add(i, i%hubs, w.weight())
		for c := 0; c < 3; c++ {
			if j := w.rng.Intn(n0); j != i {
				add(i, j, w.weight())
			}
		}
		if loops && w.rng.Intn(2) == 0 {
			add(i, i, w.weight())
		}
	}
	ov, err := sparse.NewOverlay(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	w.ov = ov
	w.lab = make([]bool, n0)
	w.y = make([]float64, n0)
	for i := 0; i < hubs; i++ {
		w.label(i)
	}
	return w
}

// weight draws an irregular positive weight, so that sums taken in a
// different order round differently.
func (w *appendWorld) weight() float64 { return 0.1 + w.rng.Float64() }

func (w *appendWorld) label(id int) {
	if !w.lab[id] {
		w.seq = append(w.seq, id)
	}
	w.lab[id] = true
	w.y[id] = w.rng.NormFloat64()
}

// insert appends a node with an edge to a hub, to each live id of near,
// and to up to four random live ids, and returns its id.
func (w *appendWorld) insert(t *testing.T, labeled bool, near ...int) int {
	t.Helper()
	n := w.ov.Rows()
	wts := map[int]float64{w.rng.Intn(w.hubs): w.weight()}
	for _, j := range near {
		if j >= 0 && !w.ov.Dead(j) {
			wts[j] = w.weight()
		}
	}
	for c := 0; c < 4; c++ {
		if j := w.rng.Intn(n); !w.ov.Dead(j) {
			wts[j] = w.weight()
		}
	}
	cols := make([]int, 0, len(wts))
	for j := range wts {
		cols = append(cols, j)
	}
	sort.Ints(cols)
	vals := make([]float64, len(cols))
	for k, j := range cols {
		vals[k] = wts[j]
	}
	id, err := w.ov.AppendRow(cols, vals)
	if err != nil {
		t.Fatal(err)
	}
	w.lab = append(w.lab, false)
	w.y = append(w.y, 0)
	if labeled {
		w.label(id)
	}
	return id
}

// randomLive returns a live id at or above the hubs, or -1.
func (w *appendWorld) randomLive() int {
	for try := 0; try < 20; try++ {
		if id := w.hubs + w.rng.Intn(w.ov.Rows()-w.hubs); !w.ov.Dead(id) {
			return id
		}
	}
	return -1
}

// problem merges the overlay and builds the problem over the live ids,
// labeled in labeling order, with the merged ids.
func (w *appendWorld) problem(t *testing.T) (*Problem, []int) {
	t.Helper()
	m, ids, err := w.ov.Merge()
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromWeights(m)
	if err != nil {
		t.Fatal(err)
	}
	node := make(map[int]int, len(ids))
	for k, id := range ids {
		node[id] = k
	}
	var labeled []int
	var y []float64
	for _, id := range w.seq {
		if w.lab[id] && !w.ov.Dead(id) {
			labeled = append(labeled, node[id])
			y = append(y, w.y[id])
		}
	}
	p, err := NewProblem(g, labeled, y)
	if err != nil {
		t.Fatal(err)
	}
	return p, ids
}

// oldNodes maps the merged ids onto a refresher's current node order.
func oldNodes(ids, prev []int) []int {
	at := make(map[int]int, len(prev))
	for k, id := range prev {
		at[id] = k
	}
	out := make([]int, len(ids))
	for k, id := range ids {
		out[k] = -1
		if o, ok := at[id]; ok {
			out[k] = o
		}
	}
	return out
}

// sameHeld fails unless two refreshers hold bitwise the same system,
// preconditioner, solution and labels.
func sameHeld(t *testing.T, step int, got, want *Refresher) {
	t.Helper()
	bits := func(what string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("step %d: %s length %d, want %d", step, what, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("step %d: %s[%d] = %.17g, rebuild %.17g", step, what, i, a[i], b[i])
			}
		}
	}
	ga, wa := got.sys.a, want.sys.a
	if ga.Rows() != wa.Rows() || ga.NNZ() != wa.NNZ() {
		t.Fatalf("step %d: A is %dx%d with %d entries, rebuild %d with %d", step, ga.Rows(), ga.Cols(), ga.NNZ(), wa.Rows(), wa.NNZ())
	}
	for i := 0; i < ga.Rows(); i++ {
		gc, gv := ga.RowNNZ(i)
		wc, wv := wa.RowNNZ(i)
		if len(gc) != len(wc) {
			t.Fatalf("step %d: A row %d has %d entries, rebuild %d", step, i, len(gc), len(wc))
		}
		for k := range gc {
			if gc[k] != wc[k] {
				t.Fatalf("step %d: A row %d column %d, rebuild %d", step, i, gc[k], wc[k])
			}
		}
		bits("A row", gv, wv)
	}
	bits("b", got.sys.b, want.sys.b)
	bits("d22", got.sys.d22, want.sys.d22)
	ones := make([]float64, len(got.sys.b))
	for i := range ones {
		ones[i] = 1
	}
	gj, wj := make([]float64, len(ones)), make([]float64, len(ones))
	got.jac.Apply(gj, ones)
	want.jac.Apply(wj, ones)
	bits("Jacobi inverse diagonal", gj, wj)
	bits("f", got.F(), want.F())
	bits("y", got.Y(), want.Y())
	gl, wl := got.Labeled(), want.Labeled()
	if len(gl) != len(wl) {
		t.Fatalf("step %d: %d labeled, rebuild %d", step, len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Fatalf("step %d: labeled[%d] = %d, rebuild %d", step, i, gl[i], wl[i])
		}
	}
	if g, w := got.Residual(), want.Residual(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("step %d: residual %.17g, rebuild %.17g", step, g, w)
	}
}

// TestRefresherAppendLabeledMatchesRebase is the in-place rung's
// differential test. Random batches mix labeled inserts, unlabeled
// inserts, deletes, labels on existing nodes and value changes. A
// labeled-only batch goes to AppendLabeled, any other batch to Rebase;
// a twin refresher takes Rebase on every batch. After each refresh the
// held A, b, degrees, Jacobi diagonal, solution and labels must match
// the twin's bit for bit. The self-loop fixture puts w_uu on about half
// the initial nodes, where A[u][u] = deg(u) − w_uu.
func TestRefresherAppendLabeledMatchesRebase(t *testing.T) {
	for _, tc := range []struct {
		name  string
		loops bool
		seed  int64
	}{{"plain", false, 11}, {"self-loops", true, 12}} {
		t.Run(tc.name, func(t *testing.T) {
			w := newAppendWorld(t, 60, 4, tc.loops, tc.seed)
			p, ids := w.problem(t)
			f := solveExactF(t, p)
			got, err := NewRefresher(p, f, 1e-10, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			p2, _ := w.problem(t)
			want, err := NewRefresher(p2, f, 1e-10, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			gotNodes, wantNodes := ids, ids
			inPlace := 0
			for step := 0; step < 40; step++ {
				if w.rng.Intn(2) == 0 {
					// The batch shares two neighbours, so their degrees and
					// b take several new weights in one refresh.
					first := w.ov.Rows()
					k := 1 + w.rng.Intn(4)
					near := []int{w.randomLive(), w.randomLive()}
					var ys []float64
					ptr := []int{0}
					var cols []int
					var vals []float64
					for i := 0; i < k; i++ {
						id := w.insert(t, true, near...)
						ys = append(ys, w.y[id])
						rc, rv := w.ov.AppendedRow(id)
						for _, j := range rc {
							node := len(gotNodes) + j - first
							if j < first {
								node = sort.SearchInts(gotNodes, j)
							}
							cols = append(cols, node)
						}
						vals = append(vals, rv...)
						ptr = append(ptr, len(cols))
					}
					st, err := got.AppendLabeled(ys, ptr, cols, vals)
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if st.Kind != RefreshWarmPCG || st.Residual > 1e-8 {
						t.Fatalf("step %d: %+v", step, st)
					}
					for id := first; id < w.ov.Rows(); id++ {
						gotNodes = append(gotNodes, id)
					}
					inPlace++
				} else {
					edits := 0
					for edits == 0 {
						for e := 0; e < 4; e++ {
							switch w.rng.Intn(5) {
							case 0:
								w.insert(t, false)
							case 1:
								w.insert(t, true)
							case 2:
								if id := w.randomLive(); id >= 0 {
									if err := w.ov.Delete(id); err != nil {
										t.Fatal(err)
									}
									w.lab[id] = false
								}
							case 3, 4: // label an unlabeled node, or change a label's value
								if id := w.randomLive(); id >= 0 {
									w.label(id)
								}
							}
							edits++
						}
					}
					pg, gids := w.problem(t)
					if _, err := got.Rebase(pg, oldNodes(gids, gotNodes)); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					gotNodes = gids
				}
				pw, wids := w.problem(t)
				if _, err := want.Rebase(pw, oldNodes(wids, wantNodes)); err != nil {
					t.Fatalf("step %d twin: %v", step, err)
				}
				wantNodes = wids
				if len(gotNodes) != len(wantNodes) {
					t.Fatalf("step %d: %d nodes, rebuild %d", step, len(gotNodes), len(wantNodes))
				}
				for k := range gotNodes {
					if gotNodes[k] != wantNodes[k] {
						t.Fatalf("step %d: node %d is id %d, rebuild %d", step, k, gotNodes[k], wantNodes[k])
					}
				}
				sameHeld(t, step, got, want)
			}
			if inPlace < 10 {
				t.Fatalf("only %d in-place batches", inPlace)
			}
		})
	}
}

// TestRefresherAppendLabeledRefusals: malformed batches are ErrParam, a
// non-positive held degree is ErrNeedsRebuild with nothing changed, the
// rungs that read graph rows refuse while a tail is held, and a failed
// solve keeps no part of its batch.
func TestRefresherAppendLabeledRefusals(t *testing.T) {
	g := refreshGraph(t, 30, 9)
	p, err := NewProblem(g, []int{0, 15}, []float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRefresher(p, solveExactF(t, p), 1e-10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ys   []float64
		ptr  []int
		cols []int
		vals []float64
	}{
		{"short ptr", []float64{1}, []int{0}, nil, nil},
		{"cols and vals", []float64{1}, []int{0, 1}, []int{3}, nil},
		{"NaN response", []float64{math.NaN()}, []int{0, 1}, []int{3}, []float64{1}},
		{"negative extent", []float64{1, 1}, []int{0, 2, 1}, []int{3}, []float64{1}},
		{"edge to itself", []float64{1}, []int{0, 1}, []int{30}, []float64{1}},
		{"negative weight", []float64{1}, []int{0, 1}, []int{3}, []float64{-1}},
		{"infinite weight", []float64{1}, []int{0, 1}, []int{3}, []float64{math.Inf(1)}},
	} {
		if _, err := r.AppendLabeled(tc.ys, tc.ptr, tc.cols, tc.vals); !errors.Is(err, ErrParam) {
			t.Fatalf("%s: err %v, want ErrParam", tc.name, err)
		}
	}

	k := r.unknown(3)
	d := r.sys.d22[k]
	r.sys.d22[k] = 0
	b := append([]float64(nil), r.sys.b...)
	if _, err := r.AppendLabeled([]float64{2}, []int{0, 2}, []int{2, 3}, []float64{1, 1}); !errors.Is(err, ErrNeedsRebuild) {
		t.Fatalf("zero held degree: err %v, want ErrNeedsRebuild", err)
	}
	for i := range b {
		if b[i] != r.sys.b[i] {
			t.Fatal("a refused batch changed b")
		}
	}
	if len(r.F()) != 30 {
		t.Fatal("a refused batch grew the tail")
	}
	r.sys.d22[k] = d

	if _, err := r.AppendLabeled([]float64{2, -3}, []int{0, 2, 4}, []int{2, 3, 3, 30}, []float64{1, 0.5, 0.25, 0.75}); err != nil {
		t.Fatal(err)
	}
	if !r.IsLabeled(30) || !r.IsLabeled(31) || r.IsLabeled(32) || r.IsLabeled(3) {
		t.Fatal("tail labels")
	}
	if f := r.F(); len(f) != 32 || f[30] != 2 || f[31] != -3 {
		t.Fatalf("tail scores %v", f[30:])
	}
	if _, err := r.UpdateLabelValues([]int{0}, []float64{3}); !errors.Is(err, ErrNeedsRebuild) {
		t.Fatalf("label values with a tail: err %v", err)
	}
	if _, err := r.AddLabels([]int{4}, []float64{3}); !errors.Is(err, ErrNeedsRebuild) {
		t.Fatalf("add labels with a tail: err %v", err)
	}

	// A batch whose solve fails leaves F, Labeled and Y as they were, so
	// a caller that keeps serving them never lists labels past the points
	// it holds; only the held system is stale until the next Rebase. One
	// PCG iteration cannot reach the tolerance after the update.
	r, err = NewRefresher(p, solveExactF(t, p), 1e-14, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := append([]float64(nil), r.F()...)
	if _, err := r.AppendLabeled([]float64{5}, []int{0, 2}, []int{2, 3}, []float64{1, 1}); !errors.Is(err, ErrSolver) {
		t.Fatalf("failed solve: err %v, want ErrSolver", err)
	}
	if got := r.F(); len(got) != len(f) {
		t.Fatalf("a failed solve left %d scores, want %d", len(got), len(f))
	}
	for i, v := range r.F() {
		if math.Float64bits(v) != math.Float64bits(f[i]) {
			t.Fatalf("a failed solve changed score %d", i)
		}
	}
	if lab, y := r.Labeled(), r.Y(); len(lab) != 2 || len(y) != 2 || r.IsLabeled(30) {
		t.Fatalf("a failed solve left labels %v, responses %v", lab, y)
	}
}
