package graphssl

// Benchmark harness: one benchmark per table/figure of the paper (Figures
// 1–5; the paper has no numbered tables) plus ablation benches for the
// design choices called out in DESIGN.md. Each figure bench runs its
// experiment end-to-end at reduced scale per iteration — the shapes
// (orderings, trends) match the paper; absolute timings document the cost
// of regenerating each figure.
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/coil"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/randx"
	"repro/internal/synth"
)

// benchSynthetic runs one scaled-down synthetic figure per iteration.
func benchSynthetic(b *testing.B, cfg experiments.SyntheticConfig, name string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := experiments.RunSynthetic(name, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Series) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkFig1 regenerates Figure 1 (Model 1, m=30, n sweep) at reduced
// scale: a truncated n grid and few replications per iteration.
func BenchmarkFig1(b *testing.B) {
	cfg := experiments.Fig1Config(3, 1)
	cfg.SweepN = []int{10, 30, 50, 100, 200}
	benchSynthetic(b, cfg, "fig1")
}

// BenchmarkFig2 regenerates Figure 2 (Model 1, n=100, m sweep).
func BenchmarkFig2(b *testing.B) {
	cfg := experiments.Fig2Config(3, 1)
	cfg.SweepM = []int{30, 60, 100, 300}
	benchSynthetic(b, cfg, "fig2")
}

// BenchmarkFig3 regenerates Figure 3 (Model 2, m=30, n sweep).
func BenchmarkFig3(b *testing.B) {
	cfg := experiments.Fig3Config(3, 1)
	cfg.SweepN = []int{10, 30, 50, 100, 200}
	benchSynthetic(b, cfg, "fig3")
}

// BenchmarkFig4 regenerates Figure 4 (Model 2, n=100, m sweep).
func BenchmarkFig4(b *testing.B) {
	cfg := experiments.Fig4Config(3, 1)
	cfg.SweepM = []int{30, 60, 100, 300}
	benchSynthetic(b, cfg, "fig4")
}

// BenchmarkFig5 regenerates Figure 5 (COIL-like AUC across λ and splits) at
// reduced scale (30 images per class, one repetition).
func BenchmarkFig5(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := experiments.Fig5DefaultCfg(30, 1, int64(i+1))
		res, err := experiments.RunFig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.AUC) == 0 {
			b.Fatal("empty result")
		}
	}
}

// benchProblem builds a reusable synthetic hard-criterion problem: Model 1
// with n labeled and m unlabeled points, the paper's bandwidth, and a kNN
// graph when knn > 0.
func benchProblem(b *testing.B, seed int64, n, m int, knn int) *core.Problem {
	b.Helper()
	rng := randx.New(seed)
	ds, err := synth.Generate(rng, synth.Model1, n, m)
	if err != nil {
		b.Fatal(err)
	}
	h, err := kernel.PaperBandwidth(n, synth.Dim)
	if err != nil {
		b.Fatal(err)
	}
	k, err := kernel.New(kernel.Gaussian, h)
	if err != nil {
		b.Fatal(err)
	}
	var opts []graph.Option
	if knn > 0 {
		opts = append(opts, graph.WithKNN(knn))
	}
	builder, err := graph.NewBuilder(k, opts...)
	if err != nil {
		b.Fatal(err)
	}
	g, err := builder.Build(ds.X)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewProblemLabeledFirst(g, ds.YLabeled())
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkHardSolvers ablates the hard-criterion backend: dense Cholesky
// vs sparse CG (Proposition II.1's O(m³) advantage shows in the
// m-dependence).
func BenchmarkHardSolvers(b *testing.B) {
	p := benchProblem(b, 99, 200, 100, 0)
	for _, m := range []core.Method{core.MethodCholesky, core.MethodCG} {
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.SolveHard(p, core.WithMethod(m)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHardPrecond solves the hard system of the bench/ fit workload's
// problem at seed 1 (Model 1, 2,500 labeled + 22,500 unlabeled points, kNN
// 10; built once) through the default auto chain under each CG
// preconditioner: Jacobi, the default, and IC(0) after an RCM reordering.
// It reports the PCG iterations per solve.
func BenchmarkHardPrecond(b *testing.B) {
	p := benchProblem(b, 1, 2500, 22500, 10)
	for _, pc := range []core.Precond{core.PrecondJacobi, core.PrecondIC0} {
		b.Run(pc.String(), func(b *testing.B) {
			b.ReportAllocs()
			var iters int
			for i := 0; i < b.N; i++ {
				sol, err := core.SolveHard(p, core.WithPreconditioner(pc))
				if err != nil {
					b.Fatal(err)
				}
				iters = sol.Iterations
			}
			b.ReportMetric(float64(iters), "iters/op")
		})
	}
}

// BenchmarkHardVsSoftComplexity contrasts the hard criterion's m×m solve
// (Eq. 5, O(m³)) with the soft criterion's (n+m)×(n+m) solve (Eq. 4,
// O((n+m)³)) — the computational advantage the paper notes after
// Proposition II.1.
func BenchmarkHardVsSoftComplexity(b *testing.B) {
	p := benchProblem(b, 99, 400, 60, 0)
	b.Run("hard-m3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveHard(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("soft-nm3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveSoft(p, 0.1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLambdaPath measures the λ-path evaluation used by every figure.
func BenchmarkLambdaPath(b *testing.B) {
	p := benchProblem(b, 99, 150, 50, 0)
	lams := []float64{0, 0.01, 0.1, 5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.LambdaPath(p, lams); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHardVsNW compares the full hard solve against the
// Nadaraya–Watson estimator it converges to (Theorem II.1).
func BenchmarkHardVsNW(b *testing.B) {
	p := benchProblem(b, 99, 300, 50, 0)
	b.Run("hard", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveHard(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.NadarayaWatson(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGraphConstruction ablates full-graph vs k-NN construction.
func BenchmarkGraphConstruction(b *testing.B) {
	rng := randx.New(7)
	ds, err := synth.Generate(rng, synth.Model1, 300, 100)
	if err != nil {
		b.Fatal(err)
	}
	k := kernel.MustNew(kernel.Gaussian, 0.5)
	for _, knn := range []int{0, 10} {
		name := "full"
		if knn > 0 {
			name = fmt.Sprintf("knn%d", knn)
		}
		b.Run(name, func(b *testing.B) {
			var opts []graph.Option
			if knn > 0 {
				opts = append(opts, graph.WithKNN(knn))
			}
			builder, err := graph.NewBuilder(k, opts...)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := builder.Build(ds.X); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernels ablates the kernel profiles on graph construction
// (compact-support kernels yield sparser graphs and obey Theorem II.1's
// conditions).
func BenchmarkKernels(b *testing.B) {
	rng := randx.New(9)
	ds, err := synth.Generate(rng, synth.Model1, 200, 50)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []kernel.Kind{kernel.Gaussian, kernel.Uniform, kernel.Epanechnikov, kernel.Tricube} {
		b.Run(kind.String(), func(b *testing.B) {
			builder, err := graph.NewBuilder(kernel.MustNew(kind, 0.6))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := builder.Build(ds.X); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchWorkerCounts are the worker-count axis of the parallel-layer
// benchmarks. On a multicore host the higher counts should approach linear
// scaling; on GOMAXPROCS=1 they document the (small) scheduling overhead.
var benchWorkerCounts = []int{1, 2, 4, runtime.GOMAXPROCS(0)}

// benchPoints draws a deterministic point cloud for the parallel benches.
func benchPoints(n, d int, seed int64) [][]float64 {
	rng := randx.New(seed)
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.Norm()
		}
	}
	return x
}

// BenchmarkPairwiseDist2 measures the O(n²d) distance pass at the
// acceptance-criteria shape (n=2000, d=50) across worker counts.
func BenchmarkPairwiseDist2(b *testing.B) {
	x := benchPoints(2000, 50, 61)
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := kernel.PairwiseDist2Workers(x, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildKNN measures the brute k-NN graph path only: construction
// from a prebuilt distance matrix (n=2000, d=50, k=10), quickselect partial
// selection plus the one-pass symmetrization into CSR.
// BenchmarkBuildKNNKDTree times the KD-tree path.
func BenchmarkBuildKNN(b *testing.B) {
	x := benchPoints(2000, 50, 67)
	d2, err := kernel.PairwiseDist2(x)
	if err != nil {
		b.Fatal(err)
	}
	k := kernel.MustNew(kernel.Gaussian, 1.0)
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			builder, err := graph.NewBuilder(k, graph.WithKNN(10), graph.WithWorkers(w))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := builder.BuildFromDist2(len(x), d2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildKNNKDTree builds the bench/ fit workload's graph at seed 1
// (Model 1, 2,500 labeled + 22,500 unlabeled points, d=5, Gaussian at the
// paper bandwidth, kNN 10) through graph.Builder.Build on the KD-tree, at
// 1 and 2 workers: tree construction, the per-point queries and the merge
// into CSR.
func BenchmarkBuildKNNKDTree(b *testing.B) {
	ds, err := synth.Generate(randx.New(1), synth.Model1, 2500, 22500)
	if err != nil {
		b.Fatal(err)
	}
	h, err := kernel.PaperBandwidth(2500, synth.Dim)
	if err != nil {
		b.Fatal(err)
	}
	k := kernel.MustNew(kernel.Gaussian, h)
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			builder, err := graph.NewBuilder(k, graph.WithKNN(10), graph.WithIndex(graph.IndexKDTree), graph.WithWorkers(w))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := builder.Build(ds.X); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ingestPoints is the bench/ ingest workload's base set: n points on a
// jittered ⌈√n⌉ × ⌈√n⌉ grid over the unit square, with the values the
// workload labels them with, and its Epanechnikov bandwidth 3.2/⌈√n⌉.
func ingestPoints(n int, seed int64) (x [][]float64, y []float64, h float64) {
	rng := randx.New(seed)
	side := int(math.Ceil(math.Sqrt(float64(n))))
	jitter := 0.2 / float64(side)
	x = make([][]float64, n)
	y = make([]float64, n)
	for i := range x {
		px := (float64(i%side) + 0.5) / float64(side)
		py := (float64(i/side) + 0.5) / float64(side)
		x[i] = []float64{px + jitter*(2*rng.Float64()-1), py + jitter*(2*rng.Float64()-1)}
		y[i] = math.Sin(4*x[i][0]) * math.Cos(3*x[i][1])
	}
	return x, y, 3.2 / float64(side)
}

// BenchmarkBuildRadius builds the bench/ ingest workload's graph at seed 1
// (20,000 jittered grid points, Epanechnikov, h = 3.2/142) through the
// default graph.Builder, as the streaming fit does, at 1 and 2 workers:
// the index, the per-point radius queries and the CSR assembly.
func BenchmarkBuildRadius(b *testing.B) {
	x, _, h := ingestPoints(20000, 1)
	k := kernel.MustNew(kernel.Epanechnikov, h)
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			builder, err := graph.NewBuilder(k, graph.WithWorkers(w))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := builder.Build(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamFit times the snapshot of the bench/ ingest workload's
// streaming fit at seed 1 (20,000 jittered grid points, every 10th
// labeled, Epanechnikov, h = 3.2/142, one worker, as the server fits it)
// both ways: Fit then Result.Snapshot, which assembles and solves the hard
// system, and HardSnapshot, which stops after the coverage check.
func BenchmarkStreamFit(b *testing.B) {
	x, all, h := ingestPoints(20000, 1)
	var y []float64
	var labeled []int
	for i := 0; i < len(x); i += 10 {
		labeled, y = append(labeled, i), append(y, all[i])
	}
	opts := []Option{WithKernel(Epanechnikov), WithBandwidth(h), WithWorkers(1)}
	b.Run("fit+snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := Fit(x, y, labeled, opts...)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := res.Snapshot(x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hard-snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := HardSnapshot(x, y, labeled, opts...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNWAppendAnchors times one ingest roll-forward of a served
// labeled-anchor model: an 8-point core.NWPredictor.AppendAnchors onto the
// ingest fixture's 2,000 labeled anchors (every 10th point) and onto all
// 20,000 of its points, on one worker. Each append rebuilds the
// predictor's index over every anchor.
func BenchmarkNWAppendAnchors(b *testing.B) {
	x, y, h := ingestPoints(20000, 1)
	k := kernel.MustNew(kernel.Epanechnikov, h)
	extra, extraY, _ := ingestPoints(8, 2)
	for _, stride := range []int{10, 1} {
		var ax [][]float64
		var ay []float64
		for i := 0; i < len(x); i += stride {
			ax, ay = append(ax, x[i]), append(ay, y[i])
		}
		b.Run(fmt.Sprintf("anchors%d", len(ax)), func(b *testing.B) {
			p, err := core.NewNWPredictor(ax, ay, k, 0, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.AppendAnchors(extra, extraY, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCGMulVec measures the sparse matrix-vector product and the CG
// solve it drives (the inner loop of every iterative hard/soft solve)
// across worker counts, on a k-NN Laplacian system.
func BenchmarkCGMulVec(b *testing.B) {
	p := benchProblem(b, 99, 300, 1200, 12)
	sys, err := core.BuildPropagationSystem(p)
	if err != nil {
		b.Fatal(err)
	}
	m := sys.M()
	xv := make([]float64, m)
	for i := range xv {
		xv[i] = float64(i%7) * 0.25
	}
	dst := make([]float64, m)
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("mulvec/workers%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := sys.W.MulVecToWorkers(dst, xv, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("cg/workers%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.SolveHard(p, core.WithMethod(core.MethodCG), core.WithWorkers(w)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCOILGeneration measures the synthetic benchmark renderer.
func BenchmarkCOILGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := coil.GenerateSized(int64(i+1), 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitFacade measures the public API end to end.
func BenchmarkFitFacade(b *testing.B) {
	rng := randx.New(21)
	x := make([][]float64, 150)
	for i := range x {
		x[i] = []float64{rng.Norm(), rng.Norm(), rng.Norm()}
	}
	y := make([]float64, 50)
	for i := range y {
		y[i] = rng.Bernoulli(0.5)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(x, y, nil); err != nil {
			b.Fatal(err)
		}
	}
}
