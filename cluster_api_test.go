package graphssl

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/cluster/chaostest"
)

// TestFitWithClusterShards drives the sharded PCG engine through the public
// API with an in-process fleet: the result must match the direct solve to
// tolerance, carry cluster metadata, and be bitwise-identical across shard
// counts.
func TestFitWithClusterShards(t *testing.T) {
	x, y := twoClusters(21, 20, 8)
	ref, err := Fit(x, y, nil, WithTolerance(1e-12))
	if err != nil {
		t.Fatal(err)
	}
	var first []float64
	for _, shards := range []int{1, 2, 4} {
		res, err := Fit(x, y, nil, WithClusterShards(shards), WithTolerance(1e-12))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Solver != SolverCluster || res.Iterations <= 0 {
			t.Fatalf("shards=%d: cluster metadata wrong: %+v", shards, res)
		}
		for i := range ref.UnlabeledScores {
			if math.Abs(res.UnlabeledScores[i]-ref.UnlabeledScores[i]) > 1e-6 {
				t.Fatalf("shards=%d: cluster result differs from direct solve", shards)
			}
		}
		for i, l := range res.Labeled {
			if res.Scores[l] != y[i] {
				t.Fatalf("shards=%d: cluster result must interpolate labels", shards)
			}
		}
		if first == nil {
			first = res.UnlabeledScores
			continue
		}
		for i := range first {
			if res.UnlabeledScores[i] != first[i] {
				t.Fatalf("shards=%d: result not bitwise-identical to 1-shard run", shards)
			}
		}
	}
}

// TestFitDistributedTCPFleet runs the full deployment shape: real workers on
// loopback TCP, coordinated through FitDistributed.
func TestFitDistributedTCPFleet(t *testing.T) {
	x, y := twoClusters(23, 18, 8)
	ref, err := Fit(x, y, nil, WithTolerance(1e-12))
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		w, err := StartClusterWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		addrs = append(addrs, w.Addr())
	}
	var rep Report
	res, err := FitDistributed(x, y, nil, addrs, WithTolerance(1e-12), WithDiagnostics(&rep))
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver != SolverCluster || rep.Solver != SolverCluster {
		t.Fatalf("solver not reported as cluster: %v / %v", res.Solver, rep.Solver)
	}
	if rep.Iterations != res.Iterations || res.Iterations <= 0 {
		t.Fatalf("iteration metadata wrong: %+v", rep)
	}
	if len(rep.Fallbacks) != 0 {
		t.Fatalf("healthy fleet must not report fallbacks: %+v", rep.Fallbacks)
	}
	for i := range ref.UnlabeledScores {
		if math.Abs(res.UnlabeledScores[i]-ref.UnlabeledScores[i]) > 1e-6 {
			t.Fatal("TCP fleet result differs from direct solve")
		}
	}
}

// TestClusterRecoverySurfacedInReport injects a worker crash mid-fit; the
// coordinator must recover and surface the rebind as a Report fallback.
func TestClusterRecoverySurfacedInReport(t *testing.T) {
	x, y := twoClusters(25, 22, 8)
	ref, err := Fit(x, y, nil, WithTolerance(1e-12))
	if err != nil {
		t.Fatal(err)
	}
	script := func(addr, method string, n int) chaostest.Fault {
		if addr == "w1" && n == 5 {
			return chaostest.Close
		}
		return chaostest.None
	}
	dial := chaostest.Dialer(cluster.InProcessDialer(), script, 0)
	var rep Report
	res, err := Fit(x, y, nil,
		WithCluster("w0", "w1", "w2", "w3"),
		withClusterDialer(dial),
		WithTolerance(1e-12),
		WithDiagnostics(&rep))
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if len(rep.Fallbacks) == 0 {
		t.Fatal("worker crash recovery not surfaced as a fallback")
	}
	fb := rep.Fallbacks[0]
	if fb.From != SolverCluster || fb.To != SolverCluster || fb.Reason == "" {
		t.Fatalf("fallback entry wrong: %+v", fb)
	}
	for i := range ref.UnlabeledScores {
		if math.Abs(res.UnlabeledScores[i]-ref.UnlabeledScores[i]) > 1e-6 {
			t.Fatal("recovered result differs from direct solve")
		}
	}
}

// TestClusterFailureTyped kills every worker: the public fit must fail with
// the typed ErrWorker, never return a result.
func TestClusterFailureTyped(t *testing.T) {
	x, y := twoClusters(27, 15, 6)
	script := func(addr, method string, n int) chaostest.Fault {
		if n >= 3 {
			return chaostest.Close
		}
		return chaostest.None
	}
	dial := chaostest.Dialer(cluster.InProcessDialer(), script, 0)
	res, err := Fit(x, y, nil, WithCluster("w0", "w1"), withClusterDialer(dial))
	if !errors.Is(err, ErrWorker) {
		t.Fatalf("want ErrWorker, got %v", err)
	}
	if res != nil {
		t.Fatal("failed fit must not return a result")
	}
}

func TestClusterOptionValidation(t *testing.T) {
	x, y := twoClusters(29, 10, 4)
	if _, err := Fit(x, y, nil, WithCluster()); !errors.Is(err, ErrParam) {
		t.Fatalf("empty WithCluster: want ErrParam, got %v", err)
	}
	if _, err := Fit(x, y, nil, WithClusterShards(2), WithLambda(1)); !errors.Is(err, ErrParam) {
		t.Fatalf("cluster with λ>0: want ErrParam, got %v", err)
	}
	if _, err := Fit(x, y, nil, WithClusterShards(-1)); !errors.Is(err, ErrParam) {
		t.Fatalf("negative shards: want ErrParam, got %v", err)
	}
	if _, err := Fit(x, y, nil, WithSolver(SolverCluster)); !errors.Is(err, ErrParam) {
		t.Fatalf("WithSolver(SolverCluster): want ErrParam, got %v", err)
	}
	labels := make([]int, 4)
	labels[1], labels[3] = 1, 1
	if _, err := FitMulticlass(x, labels, nil, false, WithClusterShards(2)); !errors.Is(err, ErrParam) {
		t.Fatalf("multiclass cluster: want ErrParam, got %v", err)
	}
}
