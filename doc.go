// Package graphssl is a Go implementation of graph-based semi-supervised
// learning, reproducing "On Consistency of Graph-based Semi-supervised
// Learning" (Du, Zhao, Wang; ICDCS 2019, arXiv:1703.06177).
//
// The package exposes the two criteria the paper studies over a similarity
// graph built from input points:
//
//   - the hard criterion (λ = 0): the harmonic solution that interpolates
//     the observed labels exactly and is proven consistent (Theorem II.1);
//   - the soft criterion (λ > 0): Laplacian-regularized least squares,
//     shown inconsistent for large λ (Proposition II.2).
//
// A minimal classification session:
//
//	res, err := graphssl.Fit(x, y, nil) // first len(y) points are labeled
//	if err != nil { ... }
//	for i, idx := range res.Unlabeled {
//	    fmt.Println(idx, res.UnlabeledScores[i] > 0.5)
//	}
//
// Fit defaults to the hard criterion with a Gaussian kernel whose bandwidth
// comes from the median heuristic; options select the soft criterion's λ,
// other kernels and bandwidth rules, and k-NN sparsification. The
// Nadaraya–Watson kernel-regression baseline from the paper's analysis is
// also exported.
//
// # Solvers and parallelism
//
// WithSolver picks the linear-system backend: dense Cholesky or sparse
// conjugate gradient. The default (SolverAuto) plans a deterministic chain
// from the system size and a pre-solve health probe — Cholesky at or below
// 2,048 unknowns, Jacobi-preconditioned CG first above that with a Cholesky
// fallback behind it up to 8,192 unknowns, and CG alone beyond. WithPreconditioner
// selects another CG preconditioner (zero-fill incomplete Cholesky with RCM
// reordering, or none); the default is Jacobi at every size. WithWorkers
// bounds the worker goroutines used by graph construction, SpMV, and batch
// prediction; results are bitwise identical for every worker count.
// WithDiagnostics fills a Report with stage timings, the solver trace, and
// any fallbacks taken.
//
// # Serving
//
// Result.Snapshot freezes a fit (scores, kernel, bandwidth and anchors)
// into a ModelSnapshot. HardSnapshot builds the snapshot of a hard-criterion
// fit without the solve, for models anchored on the labeled points: Eq. 5
// fixes their scores to the responses, and such a model reads no other
// score. The serve subpackage turns snapshots into HTTP prediction services
// with SIMD batch scoring, anchor pruning, a prediction cache, and load
// shedding; it fits every labeled-anchor hard-criterion request through
// HardSnapshot.
//
// The experiment harnesses that regenerate the paper's figures live in
// internal/experiments and are driven by cmd/sslrepro; the bench module
// (bench/, declared by BENCHMARK.json) measures fit, predict and ingest end
// to end and layer by layer.
package graphssl
