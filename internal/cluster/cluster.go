// Package cluster implements the distributed hard-criterion solve: the
// unlabeled nodes are cut into edge-cut-aware shards (see Plan) that workers
// hold while a coordinator drives block-partitioned preconditioned conjugate
// gradient on (D − W) f = B over them (see SolvePCG). Workers run behind a
// real network listener (net/rpc with gob encoding) or in-process through
// InProcessDialer; both transports, and every shard count, produce the
// bitwise-same solution, which the coordinator re-verifies against the
// original system. Worker failures are absorbed by rebinding the lost
// shards to survivors.
//
// The paper was published at ICDCS; this package is the repository's
// distributed-systems substrate showing the algorithm's natural
// parallelization, and it doubles as an independent cross-check of the
// direct solvers.
package cluster

import "errors"

var (
	// ErrParam is returned for invalid engine parameters.
	ErrParam = errors.New("cluster: invalid parameter")
	// ErrNotConverged is returned when the iteration budget is exhausted.
	ErrNotConverged = errors.New("cluster: propagation did not converge")
	// ErrWorker is returned when a worker fails mid-computation.
	ErrWorker = errors.New("cluster: worker failure")
	// ErrStale is returned by a worker that receives traffic from a
	// superseded epoch or an out-of-order sequence number — the guard that
	// keeps a rebound shard from being driven by its previous incarnation.
	ErrStale = errors.New("cluster: stale epoch or sequence")
)

// Result summarizes a distributed solve.
type Result struct {
	// Workers is the number of participating workers.
	Workers int
	// Shards is the number of blocks the system was cut into.
	Shards int
	// Iterations is the PCG iteration count.
	Iterations int
	// Residual is the verified relative residual ‖B−(D−W)f‖₂/‖B‖₂ of the
	// returned solution, recomputed by the coordinator from the original
	// system (so a recovered run can never silently return a wrong answer).
	Residual float64
	// Restarts counts solver restarts after worker failures; Rebinds counts
	// shard blocks reassigned to a surviving worker across those restarts.
	Restarts int
	Rebinds  int
	// EdgeCut and HaloTotal echo the partition quality (see PlanStats).
	EdgeCut   int
	HaloTotal int
}
