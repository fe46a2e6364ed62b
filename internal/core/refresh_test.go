package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sparse"
)

// refreshGraph builds a connected weighted graph: a path backbone plus
// random chords, deterministic in the seed.
func refreshGraph(t *testing.T, n int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coo := sparse.NewCOO(n, n)
	add := func(i, j int, v float64) {
		if err := coo.AddSym(i, j, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < n; i++ {
		add(i, i+1, 0.5+rng.Float64())
	}
	for e := 0; e < 2*n; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		add(i, j, 0.1+0.5*rng.Float64())
	}
	g, err := graph.FromWeights(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// maxAbsDiff returns max_i |a_i − b_i|.
func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

func solveExactF(t *testing.T, p *Problem) []float64 {
	t.Helper()
	sol, err := SolveHard(p, WithMethod(MethodCG), WithTolerance(1e-12), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	return sol.F
}

func TestRefresherUpdateLabelValues(t *testing.T) {
	g := refreshGraph(t, 80, 1)
	labeled := []int{0, 7, 19, 42, 63}
	y := []float64{1, -1, 0.5, 2, -0.25}
	p, err := NewProblem(g, labeled, y)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRefresher(p, solveExactF(t, p), 1e-12, 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	st, err := r.UpdateLabelValues([]int{7, 42}, []float64{3, -2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != RefreshLabelValues {
		t.Fatalf("kind %v", st.Kind)
	}
	y2 := []float64{1, 3, 0.5, -2, -0.25}
	p2, err := NewProblem(g, labeled, y2)
	if err != nil {
		t.Fatal(err)
	}
	want := solveExactF(t, p2)
	if d := maxAbsDiff(r.F(), want); d > 1e-8 {
		t.Fatalf("refreshed solution off by %g", d)
	}
	if got := r.Residual(); got > 1e-8 {
		t.Fatalf("verified residual %g", got)
	}

	// A second update on top of the first must also match from scratch.
	if _, err := r.UpdateLabelValues([]int{0}, []float64{-5}); err != nil {
		t.Fatal(err)
	}
	y3 := []float64{-5, 3, 0.5, -2, -0.25}
	p3, err := NewProblem(g, labeled, y3)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(r.F(), solveExactF(t, p3)); d > 1e-8 {
		t.Fatalf("second refresh off by %g", d)
	}
}

func TestRefresherAddLabelsWarmPCG(t *testing.T) {
	g := refreshGraph(t, 120, 3)
	labeled := []int{0, 40}
	y := []float64{1, -1}
	p, err := NewProblem(g, labeled, y)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRefresher(p, solveExactF(t, p), 1e-12, 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	nodes := []int{5, 15, 25, 35, 45, 55}
	vals := []float64{1, 1, -1, -1, 0.5, 2}
	st, err := r.AddLabels(nodes, vals)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != RefreshWarmPCG {
		t.Fatalf("kind %v", st.Kind)
	}
	p2, err := NewProblem(g, append(append([]int{}, labeled...), nodes...), append(append([]float64{}, y...), vals...))
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(r.F(), solveExactF(t, p2)); d > 1e-8 {
		t.Fatalf("warm-pcg solution off by %g", d)
	}

	// Chaining: a single-node batch on the committed system takes the same
	// rung.
	st, err = r.AddLabels([]int{99}, []float64{-3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != RefreshWarmPCG {
		t.Fatalf("chained kind %v", st.Kind)
	}
	p3, err := NewProblem(g,
		append(append(append([]int{}, labeled...), nodes...), 99),
		append(append(append([]float64{}, y...), vals...), -3))
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(r.F(), solveExactF(t, p3)); d > 1e-7 {
		t.Fatalf("chained solution off by %g", d)
	}
}

func TestRefresherRebase(t *testing.T) {
	gOld := refreshGraph(t, 60, 4)
	labeled := []int{0, 30}
	y := []float64{2, -2}
	p, err := NewProblem(gOld, labeled, y)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRefresher(p, solveExactF(t, p), 1e-12, 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Grow the graph by 5 nodes (node ids 60..64 are new, old ids keep
	// their positions).
	gNew := refreshGraph(t, 65, 4)
	p2, err := NewProblem(gNew, labeled, y)
	if err != nil {
		t.Fatal(err)
	}
	oldNode := make([]int, 65)
	for i := range oldNode {
		if i < 60 {
			oldNode[i] = i
		} else {
			oldNode[i] = -1
		}
	}
	st, err := r.Rebase(p2, oldNode)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != RefreshWarmPCG {
		t.Fatalf("kind %v", st.Kind)
	}
	if d := maxAbsDiff(r.F(), solveExactF(t, p2)); d > 1e-8 {
		t.Fatalf("rebased solution off by %g", d)
	}
}

// TestRefresherResidualVerified: every rung reports the true relative
// residual of the solution it accepted, bitwise what Residual recomputes,
// not PCG's recursively updated estimate.
func TestRefresherResidualVerified(t *testing.T) {
	g := refreshGraph(t, 90, 7)
	labeled := []int{0, 30, 60}
	y := []float64{1, -2, 0.5}
	p, err := NewProblem(g, labeled, y)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRefresher(p, solveExactF(t, p), 1e-10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	check := func(rung string, st RefreshStats, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", rung, err)
		}
		if got := r.Residual(); st.Residual != got {
			t.Fatalf("%s: reported residual %.17g, verified %.17g", rung, st.Residual, got)
		}
	}
	st, err := r.UpdateLabelValues([]int{30}, []float64{3})
	check("label-values", st, err)
	st, err = r.AddLabels([]int{15, 45, 75}, []float64{1, -1, 2})
	check("add-labels", st, err)
	gNew := refreshGraph(t, 95, 7)
	p2, err := NewProblem(gNew, r.Problem().Labeled(), r.Problem().Y())
	if err != nil {
		t.Fatal(err)
	}
	oldNode := make([]int, 95)
	for i := range oldNode {
		oldNode[i] = -1
		if i < 90 {
			oldNode[i] = i
		}
	}
	st, err = r.Rebase(p2, oldNode)
	check("rebase", st, err)
}

func TestRefresherValidation(t *testing.T) {
	g := refreshGraph(t, 20, 5)
	p, err := NewProblem(g, []int{0, 5}, []float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRefresher(p, solveExactF(t, p), 1e-10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.UpdateLabelValues([]int{3}, []float64{1}); err == nil {
		t.Fatal("update of unlabeled node accepted")
	}
	if _, err := r.UpdateLabelValues([]int{0}, []float64{math.NaN()}); err == nil {
		t.Fatal("NaN label accepted")
	}
	if _, err := r.AddLabels([]int{0}, []float64{1}); err == nil {
		t.Fatal("re-labeling a labeled node accepted")
	}
	if _, err := r.AddLabels([]int{7, 7}, []float64{1, 1}); err == nil {
		t.Fatal("duplicate nodes accepted")
	}
	if _, err := r.AddLabels([]int{7}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := NewRefresher(p, []float64{1}, 1e-10, 0, 1); err == nil {
		t.Fatal("short solution vector accepted")
	}
}

// TestZeroAllocRefresh is the CI allocation gate for the warm streaming
// ingest path: once the refresher's held buffers are warm, a label-value
// refresh (right-hand-side update + warm PCG restart) must not allocate.
func TestZeroAllocRefresh(t *testing.T) {
	g := refreshGraph(t, 200, 6)
	labeled := []int{0, 50, 100, 150}
	y := []float64{1, -1, 2, -2}
	p, err := NewProblem(g, labeled, y)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRefresher(p, solveExactF(t, p), 1e-10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	nodes := []int{50}
	vals := []float64{0}
	flip := 0.0
	// Warm the held workspace and destination buffers.
	for i := 0; i < 3; i++ {
		flip = 1 - flip
		vals[0] = flip
		if _, err := r.UpdateLabelValues(nodes, vals); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		flip = 1 - flip
		vals[0] = flip
		if _, err := r.UpdateLabelValues(nodes, vals); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm label refresh allocates %v times per op, want 0", allocs)
	}
}
