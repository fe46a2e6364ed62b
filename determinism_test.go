package graphssl

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernel"
)

// fitEqual asserts two results agree bitwise on every score.
func fitEqual(t *testing.T, name string, ref, got *Result) {
	t.Helper()
	if len(got.Scores) != len(ref.Scores) {
		t.Fatalf("%s: %d scores, want %d", name, len(got.Scores), len(ref.Scores))
	}
	for i := range ref.Scores {
		if got.Scores[i] != ref.Scores[i] {
			t.Fatalf("%s: score %d = %v, want %v (must be bitwise-identical)", name, i, got.Scores[i], ref.Scores[i])
		}
	}
	for i := range ref.UnlabeledScores {
		if got.UnlabeledScores[i] != ref.UnlabeledScores[i] {
			t.Fatalf("%s: unlabeled score %d differs", name, i)
		}
	}
	if got.GraphStats != ref.GraphStats {
		t.Fatalf("%s: graph stats %+v, want %+v", name, got.GraphStats, ref.GraphStats)
	}
}

// TestFitDeterministicAcrossWorkers is the determinism suite of the
// parallel compute layer: Fit output must be identical for
// WithWorkers(1), WithWorkers(4), and WithWorkers(GOMAXPROCS) on both
// Gaussian and Epanechnikov graphs, across solver backends and criteria.
// The auto-chain case sits above its WithAutoCutoff, so the chain's
// Jacobi-CG head produces the scores.
func TestFitDeterministicAcrossWorkers(t *testing.T) {
	x, y := twoClusters(47, 30, 10)
	cases := []struct {
		name   string
		opts   []Option
		solver Solver // the backend the fit must settle on; SolverAuto: any
	}{
		{"gaussian-hard", []Option{WithKernel(Gaussian)}, SolverAuto},
		{"gaussian-knn-soft", []Option{WithKernel(Gaussian), WithKNN(8), WithLambda(0.1)}, SolverAuto},
		{"gaussian-cg", []Option{WithKernel(Gaussian), WithSolver(SolverCG)}, SolverCG},
		{"gaussian-knn-auto-cg", []Option{WithKernel(Gaussian), WithKNN(8), WithAutoCutoff(16)}, SolverCG},
		{"gaussian-propagation", []Option{WithKernel(Gaussian), WithSolver(SolverPropagation)}, SolverPropagation},
		{"epanechnikov-hard", []Option{WithKernel(Epanechnikov), WithBandwidth(3)}, SolverAuto},
		{"epanechnikov-knn", []Option{WithKernel(Epanechnikov), WithBandwidth(3), WithKNN(8)}, SolverAuto},
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, tc := range cases {
		var ref *Result
		for _, w := range workerCounts {
			res, err := Fit(x, y, nil, append([]Option{WithWorkers(w)}, tc.opts...)...)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, w, err)
			}
			if tc.solver != SolverAuto && res.Solver != tc.solver {
				t.Fatalf("%s workers=%d: solved by %v, want %v", tc.name, w, res.Solver, tc.solver)
			}
			if ref == nil {
				ref = res
				continue
			}
			fitEqual(t, tc.name, ref, res)
		}
	}
}

// TestMulticlassDeterministicAcrossWorkers extends the suite to the
// one-vs-rest path, whose per-class solves run in parallel.
func TestMulticlassDeterministicAcrossWorkers(t *testing.T) {
	x, _ := twoClusters(53, 24, 8)
	labels := make([]int, 12)
	for i := range labels {
		labels[i] = i % 3
	}
	var ref *MulticlassResult
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		res, err := FitMulticlass(x, labels, nil, true, WithWorkers(w))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		for i := range ref.Predicted {
			if res.Predicted[i] != ref.Predicted[i] {
				t.Fatalf("workers=%d: prediction %d differs", w, i)
			}
		}
		rr, rc := ref.Scores.Dims()
		for i := 0; i < rr; i++ {
			for j := 0; j < rc; j++ {
				if res.Scores.At(i, j) != ref.Scores.At(i, j) {
					t.Fatalf("workers=%d: score (%d,%d) differs (must be bitwise-identical)", w, i, j)
				}
			}
		}
	}
}

// TestFitDeterministicAcrossIndexBackends extends the determinism suite
// across construction backends: the fitted scores must be bitwise-identical
// whether the similarity graph is built brute-force from the distance
// matrix, through the grid cell-list, or through the KD-tree, at every
// worker count.
func TestFitDeterministicAcrossIndexBackends(t *testing.T) {
	x, y := twoClusters(61, 40, 12)
	cases := []struct {
		name  string
		k     *kernel.K
		kinds []graph.IndexKind
		opts  []graph.Option
	}{
		{"epanechnikov-radius", kernel.MustNew(kernel.Epanechnikov, 3.0),
			[]graph.IndexKind{graph.IndexGrid, graph.IndexKDTree}, nil},
		{"gaussian-eps", kernel.MustNew(kernel.Gaussian, 2.0),
			[]graph.IndexKind{graph.IndexGrid, graph.IndexKDTree},
			[]graph.Option{graph.WithEpsilon(3.5)}},
		{"gaussian-knn", kernel.MustNew(kernel.Gaussian, 2.0),
			[]graph.IndexKind{graph.IndexKDTree},
			[]graph.Option{graph.WithKNN(6)}},
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, tc := range cases {
		fit := func(kind graph.IndexKind, workers int) *Result {
			t.Helper()
			opts := append([]graph.Option{graph.WithIndex(kind), graph.WithWorkers(workers)}, tc.opts...)
			b, err := graph.NewBuilder(tc.k, opts...)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			g, err := b.Build(x)
			if err != nil {
				t.Fatalf("%s index=%v: %v", tc.name, kind, err)
			}
			res, err := FitGraph(g.Weights(), y, nil, WithWorkers(workers))
			if err != nil {
				t.Fatalf("%s index=%v: %v", tc.name, kind, err)
			}
			return res
		}
		ref := fit(graph.IndexBrute, 1)
		for _, kind := range tc.kinds {
			for _, w := range workerCounts {
				fitEqual(t, tc.name, ref, fit(kind, w))
			}
		}
	}
}

// TestConcurrentFitSharedDistances is the race stress test: many goroutines
// build graphs from one shared prebuilt distance matrix and solve
// concurrently with different worker counts (run under -race; the Makefile
// ci target does).
func TestConcurrentFitSharedDistances(t *testing.T) {
	x, y := twoClusters(59, 25, 8)
	d2, err := kernel.PairwiseDist2(x)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.MustNew(kernel.Gaussian, 2.0)

	// Reference solution from the shared matrix.
	refBuilder, err := graph.NewBuilder(k, graph.WithKNN(6), graph.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	refGraph, err := refBuilder.BuildFromDist2(len(x), d2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := FitGraph(refGraph.Weights(), y, nil)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	results := make([]*Result, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			workers := 1 + gi%4
			b, err := graph.NewBuilder(k, graph.WithKNN(6), graph.WithWorkers(workers))
			if err != nil {
				errs[gi] = err
				return
			}
			g, err := b.BuildFromDist2(len(x), d2)
			if err != nil {
				errs[gi] = err
				return
			}
			res, err := FitGraph(g.Weights(), y, nil, WithWorkers(workers))
			results[gi], errs[gi] = res, err
		}(gi)
	}
	wg.Wait()
	for gi := 0; gi < goroutines; gi++ {
		if errs[gi] != nil {
			t.Fatalf("goroutine %d: %v", gi, errs[gi])
		}
		for i := range ref.UnlabeledScores {
			if results[gi].UnlabeledScores[i] != ref.UnlabeledScores[i] {
				t.Fatalf("goroutine %d (workers=%d) diverged at score %d", gi, 1+gi%4, i)
			}
		}
	}
}
