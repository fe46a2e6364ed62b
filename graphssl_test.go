package graphssl

import (
	"errors"
	"math"
	"testing"

	"repro/internal/randx"
	"repro/internal/stats"
)

// twoClusters generates two well-separated Gaussian blobs with the first
// nLabeled points labeled by blob membership.
func twoClusters(seed int64, perCluster, nLabeled int) (x [][]float64, y []float64) {
	rng := randx.New(seed)
	total := 2 * perCluster
	x = make([][]float64, 0, total)
	full := make([]float64, 0, total)
	// Interleave so the labeled prefix covers both clusters.
	for i := 0; i < perCluster; i++ {
		x = append(x, []float64{rng.Norm()*0.3 - 2, rng.Norm() * 0.3})
		full = append(full, 1)
		x = append(x, []float64{rng.Norm()*0.3 + 2, rng.Norm() * 0.3})
		full = append(full, 0)
	}
	return x, full[:nLabeled]
}

func TestFitTwoClustersPerfect(t *testing.T) {
	x, y := twoClusters(1, 30, 12)
	res, err := Fit(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != len(x) {
		t.Fatalf("scores = %d", len(res.Scores))
	}
	if len(res.Unlabeled) != len(x)-12 || len(res.UnlabeledScores) != len(x)-12 {
		t.Fatal("unlabeled slices wrong")
	}
	// Scores must classify the clusters perfectly: cluster A (even index)
	// has label 1.
	for i, idx := range res.Unlabeled {
		want := 1.0
		if idx%2 == 1 {
			want = 0
		}
		score := res.UnlabeledScores[i]
		if (score > 0.5) != (want == 1) {
			t.Fatalf("point %d misclassified: score %v, want class %v", idx, score, want)
		}
	}
	if res.Lambda != 0 {
		t.Fatal("default must be hard criterion")
	}
	if res.Bandwidth <= 0 {
		t.Fatal("bandwidth not reported")
	}
	if res.GraphStats.Nodes != len(x) {
		t.Fatal("graph stats missing")
	}
}

func TestFitHardInterpolatesLabels(t *testing.T) {
	x, y := twoClusters(3, 20, 8)
	res, err := Fit(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range res.Labeled {
		if res.Scores[l] != y[i] {
			t.Fatalf("hard criterion must interpolate: score[%d] = %v, y = %v", l, res.Scores[l], y[i])
		}
	}
}

func TestFitSoftLambda(t *testing.T) {
	x, y := twoClusters(5, 20, 8)
	res, err := Fit(x, y, nil, WithLambda(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda != 0.5 {
		t.Fatal("lambda not recorded")
	}
	shrunk := false
	for i, l := range res.Labeled {
		if math.Abs(res.Scores[l]-y[i]) > 1e-9 {
			shrunk = true
		}
	}
	if !shrunk {
		t.Fatal("soft criterion should shrink labeled fits")
	}
}

func TestFitHardBeatsLargeLambdaOnAUC(t *testing.T) {
	// The paper's headline: λ=0 gives the best ranking.
	x, y := twoClusters(7, 40, 16)
	truth := make([]float64, 0, len(x)-16)
	for idx := 16; idx < len(x); idx++ {
		want := 1.0
		if idx%2 == 1 {
			want = 0
		}
		truth = append(truth, want)
	}
	hard, err := Fit(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	soft, err := Fit(x, y, nil, WithLambda(5))
	if err != nil {
		t.Fatal(err)
	}
	aucHard, err := stats.AUC(hard.UnlabeledScores, truth)
	if err != nil {
		t.Fatal(err)
	}
	aucSoft, err := stats.AUC(soft.UnlabeledScores, truth)
	if err != nil {
		t.Fatal(err)
	}
	if aucHard < aucSoft-1e-12 {
		t.Fatalf("hard AUC %v below soft AUC %v", aucHard, aucSoft)
	}
}

func TestFitExplicitLabeledIndices(t *testing.T) {
	x, _ := twoClusters(9, 15, 2)
	labeled := []int{0, 1, 2, 3}
	y := []float64{1, 0, 1, 0}
	res, err := Fit(x, y, labeled)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labeled) != 4 || len(res.Unlabeled) != len(x)-4 {
		t.Fatal("labeled bookkeeping wrong")
	}
}

func TestFitSolverBackendsAgree(t *testing.T) {
	x, y := twoClusters(11, 15, 6)
	ref, err := Fit(x, y, nil, WithSolver(SolverCholesky))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Solver{SolverAuto, SolverCG} {
		res, err := Fit(x, y, nil, WithSolver(s), WithTolerance(1e-12))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		for i := range ref.UnlabeledScores {
			if math.Abs(res.UnlabeledScores[i]-ref.UnlabeledScores[i]) > 1e-6 {
				t.Fatalf("%v disagrees with Cholesky at %d", s, i)
			}
		}
	}
}

func TestFitKernelAndBandwidthOptions(t *testing.T) {
	x, y := twoClusters(17, 15, 6)
	res, err := Fit(x, y, nil, WithKernel(Epanechnikov), WithBandwidth(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Bandwidth != 3 {
		t.Fatalf("bandwidth = %v, want 3", res.Bandwidth)
	}
	res2, err := Fit(x, y, nil, WithPaperBandwidth())
	if err != nil {
		t.Fatal(err)
	}
	wantBW := math.Pow(math.Log(6)/6, 0.5) // n=6 labeled, d=2
	if math.Abs(res2.Bandwidth-wantBW) > 1e-12 {
		t.Fatalf("paper bandwidth = %v, want %v", res2.Bandwidth, wantBW)
	}
	res3, err := Fit(x, y, nil, WithMedianBandwidth())
	if err != nil {
		t.Fatal(err)
	}
	if res3.Bandwidth <= 0 {
		t.Fatal("median bandwidth not positive")
	}
}

func TestFitKNNGraph(t *testing.T) {
	x, y := twoClusters(19, 25, 10)
	res, err := Fit(x, y, nil, WithKNN(5))
	if err != nil {
		t.Fatal(err)
	}
	full, err := Fit(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.GraphStats.Edges >= full.GraphStats.Edges {
		t.Fatal("kNN graph must have fewer edges than the full graph")
	}
}

func TestFitValidation(t *testing.T) {
	x, y := twoClusters(21, 10, 4)
	w := chainWeights(t, 5)
	tests := []struct {
		name string
		run  func() error
	}{
		{"no points", func() error { _, err := Fit(nil, y, nil); return err }},
		{"zero dim", func() error { _, err := Fit([][]float64{{}, {}}, []float64{1}, nil); return err }},
		{"ragged dims", func() error {
			_, err := Fit([][]float64{{1, 2}, {1}}, []float64{1}, nil)
			return err
		}},
		{"all labeled default", func() error {
			_, err := Fit(x[:4], []float64{1, 0, 1, 0}, nil)
			return err
		}},
		{"negative lambda", func() error { _, err := Fit(x, y, nil, WithLambda(-1)); return err }},
		{"bad labeled index", func() error { _, err := Fit(x, []float64{1}, []int{99}); return err }},
		{"bad bandwidth", func() error { _, err := Fit(x, y, nil, WithBandwidth(-2)); return err }},
		// Values past the exported preconditioners, the first one
		// included, must be rejected, not run as Jacobi.
		{"retired precond", func() error {
			_, err := Fit(x, y, nil, WithSolver(SolverCG), WithPreconditioner(Precond(4)))
			return err
		}},
		{"unknown precond", func() error {
			_, err := Fit(x, y, nil, WithSolver(SolverCG), WithPreconditioner(Precond(99)))
			return err
		}},
		{"unknown precond graph", func() error {
			_, err := FitGraph(w, []float64{0, 1}, []int{0, 4}, WithPreconditioner(Precond(99)))
			return err
		}},
		{"unknown precond multiclass", func() error {
			_, err := FitMulticlass(x, []int{1, 0, 1, 0}, nil, false, WithPreconditioner(Precond(99)))
			return err
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.run(); !errors.Is(err, ErrParam) {
				t.Fatalf("want ErrParam, got %v", err)
			}
		})
	}
}

func TestFitIsolatedUnlabeled(t *testing.T) {
	// Uniform kernel with tiny bandwidth: far-away unlabeled point gets no
	// edges at all.
	x := [][]float64{{0}, {0.1}, {100}}
	y := []float64{1, 0}
	_, err := Fit(x, y, nil, WithKernel(Uniform), WithBandwidth(1))
	if !errors.Is(err, ErrIsolated) {
		t.Fatalf("want ErrIsolated, got %v", err)
	}
}

func TestNadarayaWatsonFacade(t *testing.T) {
	x, y := twoClusters(23, 20, 8)
	nw, unl, err := NadarayaWatson(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(nw) != len(x)-8 || len(unl) != len(nw) {
		t.Fatal("NW output shape wrong")
	}
	for i, idx := range unl {
		want := 1.0
		if idx%2 == 1 {
			want = 0
		}
		if (nw[i] > 0.5) != (want == 1) {
			t.Fatalf("NW misclassified point %d (score %v)", idx, nw[i])
		}
	}
}

func TestNadarayaWatsonFacadeErrors(t *testing.T) {
	if _, _, err := NadarayaWatson(nil, nil, nil); !errors.Is(err, ErrParam) {
		t.Fatal("empty input must error")
	}
	x := [][]float64{{0}, {0.1}, {100}}
	if _, _, err := NadarayaWatson(x, []float64{1, 0}, nil, WithKernel(Uniform), WithBandwidth(1)); !errors.Is(err, ErrIsolated) {
		t.Fatal("isolated point must surface ErrIsolated")
	}
}

// TestFitMatchesNWForSingleUnlabeled mirrors the theory link: with one
// unlabeled point the hard criterion equals Nadaraya–Watson.
func TestFitMatchesNWForSingleUnlabeled(t *testing.T) {
	x, _ := twoClusters(25, 8, 0)
	y := make([]float64, len(x)-1)
	for i := range y {
		if i%2 == 0 {
			y[i] = 1
		}
	}
	res, err := Fit(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	nw, _, err := NadarayaWatson(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.UnlabeledScores[0]-nw[0]) > 1e-10 {
		t.Fatalf("hard %v != NW %v with m=1", res.UnlabeledScores[0], nw[0])
	}
}
