package graphssl

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/sparse"
)

func chainWeights(t *testing.T, n int) *sparse.CSR {
	t.Helper()
	coo := sparse.NewCOO(n, n)
	for i := 0; i+1 < n; i++ {
		if err := coo.AddSym(i, i+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	return coo.ToCSR()
}

func TestFitGraphChainInterpolation(t *testing.T) {
	w := chainWeights(t, 5)
	res, err := FitGraph(w, []float64{0, 1}, []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i, v := range res.Scores {
		if math.Abs(v-want[i]) > 1e-10 {
			t.Fatalf("score[%d] = %v, want %v", i, v, want[i])
		}
	}
	if res.GraphStats.Edges != 4 {
		t.Fatalf("edges = %d", res.GraphStats.Edges)
	}
}

func TestFitGraphDefaultLabeledPrefix(t *testing.T) {
	w := chainWeights(t, 4)
	res, err := FitGraph(w, []float64{1, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labeled) != 2 || res.Labeled[0] != 0 || res.Labeled[1] != 1 {
		t.Fatalf("labeled = %v", res.Labeled)
	}
}

func TestFitGraphSoft(t *testing.T) {
	w := chainWeights(t, 4)
	res, err := FitGraph(w, []float64{1, 0}, nil, WithLambda(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda != 0.5 {
		t.Fatal("lambda not recorded")
	}
	if res.Scores[0] == 1 {
		t.Fatal("soft criterion should shrink the labeled fit")
	}
}

func TestFitGraphValidation(t *testing.T) {
	w := chainWeights(t, 3)
	if _, err := FitGraph(w, []float64{1, 0, 1}, nil); !errors.Is(err, ErrParam) {
		t.Fatal("all labeled must error")
	}
	if _, err := FitGraph(w, []float64{1}, nil, WithLambda(-1)); !errors.Is(err, ErrParam) {
		t.Fatal("negative lambda must error")
	}
	// Asymmetric weights rejected.
	coo := sparse.NewCOO(2, 2)
	_ = coo.Add(0, 1, 1)
	if _, err := FitGraph(coo.ToCSR(), []float64{1}, nil); !errors.Is(err, ErrParam) {
		t.Fatal("asymmetric weights must error")
	}
	// Isolated unlabeled component surfaces ErrIsolated.
	iso := sparse.NewCOO(4, 4)
	_ = iso.AddSym(0, 1, 1)
	_ = iso.AddSym(2, 3, 1)
	if _, err := FitGraph(iso.ToCSR(), []float64{1}, []int{0}); !errors.Is(err, ErrIsolated) {
		t.Fatal("isolated component must surface ErrIsolated")
	}
}

// TestFitGraphRejectsBadWeights: a negative or non-finite similarity breaks
// the M-matrix structure the solvers rely on, so FitGraph refuses it up
// front instead of solving an indefinite system or reporting ErrIsolated.
func TestFitGraphRejectsBadWeights(t *testing.T) {
	for _, v := range []float64{-3, -0.5, math.NaN(), math.Inf(1)} {
		coo := sparse.NewCOO(5, 5)
		for i := 0; i+1 < 5; i++ {
			if err := coo.AddSym(i, i+1, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := coo.AddSym(1, 3, v); err != nil {
			t.Fatal(err)
		}
		if _, err := FitGraph(coo.ToCSR(), []float64{0, 1}, []int{0, 4}); !errors.Is(err, ErrParam) {
			t.Errorf("chord weight %v: err = %v, want ErrParam", v, err)
		}
	}
	w := chainWeights(t, 5)
	for _, y := range []float64{math.NaN(), math.Inf(-1)} {
		if _, err := FitGraph(w, []float64{0, y}, []int{0, 4}); !errors.Is(err, ErrParam) {
			t.Errorf("response %v: err = %v, want ErrParam", y, err)
		}
	}
}

func TestFitGraphMatchesFitOnSameGeometry(t *testing.T) {
	// Building the graph externally must give the same answer as Fit with
	// the same kernel/bandwidth.
	x, y := twoClusters(61, 10, 4)
	ref, err := Fit(x, y, nil, WithBandwidth(1.5))
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild identical weights manually.
	coo := sparse.NewCOO(len(x), len(x))
	for i := range x {
		for j := i + 1; j < len(x); j++ {
			d2 := (x[i][0]-x[j][0])*(x[i][0]-x[j][0]) + (x[i][1]-x[j][1])*(x[i][1]-x[j][1])
			wv := math.Exp(-d2 / (1.5 * 1.5))
			if wv > 0 {
				if err := coo.AddSym(i, j, wv); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	res, err := FitGraph(coo.ToCSR(), y, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.UnlabeledScores {
		if math.Abs(res.UnlabeledScores[i]-ref.UnlabeledScores[i]) > 1e-9 {
			t.Fatalf("FitGraph disagrees with Fit at %d", i)
		}
	}
}

// TestFitGraphHonoursSolverOptions checks that FitGraph hands the solver
// options of Fit to core: on a 600-node chain, WithAutoCutoff(1) moves the
// solve from the dense Cholesky to CG, a canceled WithContext fails the
// fit with context.Canceled, and a WithDiagnostics report is reset and
// filled.
func TestFitGraphHonoursSolverOptions(t *testing.T) {
	w := chainWeights(t, 600)
	y, labeled := []float64{0, 1}, []int{0, 599}
	dense, err := FitGraph(w, y, labeled)
	if err != nil {
		t.Fatal(err)
	}
	if dense.Solver != SolverCholesky {
		t.Fatalf("default solver %v, want %v", dense.Solver, SolverCholesky)
	}
	cg, err := FitGraph(w, y, labeled, WithAutoCutoff(1))
	if err != nil {
		t.Fatal(err)
	}
	if cg.Solver != SolverCG {
		t.Fatalf("WithAutoCutoff(1) solved by %v, want %v", cg.Solver, SolverCG)
	}
	for i, v := range cg.Scores {
		if math.Abs(v-dense.Scores[i]) > 1e-8 {
			t.Fatalf("CG score[%d] = %v, dense %v", i, v, dense.Scores[i])
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FitGraph(w, y, labeled, WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: err = %v", err)
	}

	rep := Report{Err: "stale", Iterations: -1}
	res, err := FitGraph(w, y, labeled, WithAutoCutoff(1), WithDiagnostics(&rep))
	if err != nil {
		t.Fatal(err)
	}
	var stages []string
	for _, s := range rep.Stages {
		stages = append(stages, s.Name)
	}
	if !slices.Equal(stages, []string{"graph", "problem", "solve"}) || rep.Err != "" {
		t.Fatalf("report stages %v, err %q", stages, rep.Err)
	}
	if rep.Solver != res.Solver || rep.Iterations != res.Iterations || rep.Residual != res.Residual || rep.Precond == "" || rep.Health == nil {
		t.Fatalf("report %+v does not describe the solve (solver %v, %d iterations)", rep, res.Solver, res.Iterations)
	}
	if _, err := FitGraph(w, y, labeled, WithContext(ctx), WithDiagnostics(&rep)); err == nil || rep.Err != err.Error() {
		t.Fatalf("failed fit: report err %q, fit err %v", rep.Err, err)
	}
}
