package chaostest_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/chaostest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/randx"
)

// buildSystem creates a propagation system from a random full-RBF problem.
func buildSystem(t *testing.T, seed int64, nTotal, nLabeled int) (*core.Problem, *core.PropagationSystem) {
	t.Helper()
	rng := randx.New(seed)
	x := make([][]float64, nTotal)
	for i := range x {
		x[i] = []float64{rng.Norm(), rng.Norm()}
	}
	b, err := graph.NewBuilder(kernel.MustNew(kernel.Gaussian, 1.2))
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Build(x)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, nLabeled)
	for i := range y {
		y[i] = rng.Bernoulli(0.5)
	}
	p, err := core.NewProblemLabeledFirst(g, y)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.BuildPropagationSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, sys
}

func addrs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("w%d", i)
	}
	return out
}

// faultFree solves without faults for the reference solution.
func faultFree(t *testing.T, sys *core.PropagationSystem, n int) []float64 {
	t.Helper()
	f, _, err := cluster.SolvePCG(sys, addrs(n), cluster.PCGOptions{
		Tol:    1e-12,
		Dialer: cluster.InProcessDialer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func chaosOpts(dial cluster.Dialer) cluster.PCGOptions {
	return cluster.PCGOptions{
		Tol:             1e-12,
		Dialer:          dial,
		StepTimeout:     250 * time.Millisecond,
		CheckpointEvery: 3,
	}
}

// TestCrashMidSolveRecovers kills one worker's connection mid-iteration;
// the coordinator must rebind its shard to a survivor and still converge to
// the fault-free answer, surfacing the recovery in the result.
func TestCrashMidSolveRecovers(t *testing.T) {
	p, sys := buildSystem(t, 61, 60, 15)
	want := faultFree(t, sys, 4)
	script := func(addr, method string, n int) chaostest.Fault {
		if addr == "w1" && n == 5 {
			return chaostest.Close
		}
		return chaostest.None
	}
	dial := chaostest.Dialer(cluster.InProcessDialer(), script, 0)
	f, res, err := cluster.SolvePCG(sys, addrs(4), chaosOpts(dial))
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if res.Restarts < 1 || res.Rebinds < 1 {
		t.Fatalf("recovery not surfaced: %+v", res)
	}
	if !mat.VecEqual(f, want, 1e-8) {
		t.Fatal("recovered solution differs from fault-free run")
	}
	if res.Residual > 1e-9 {
		t.Fatalf("verified residual %g too large", res.Residual)
	}
	sol, err := core.SolveHard(p)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecEqual(f, sol.FUnlabeled, 1e-8) {
		t.Fatal("recovered solution differs from the single-node solver")
	}
}

// TestAllWorkersCrash verifies the failure path is typed: when every worker
// dies, the solve must give up with ErrWorker — never return a result.
func TestAllWorkersCrash(t *testing.T) {
	_, sys := buildSystem(t, 63, 40, 10)
	script := func(addr, method string, n int) chaostest.Fault {
		if n >= 3 {
			return chaostest.Close
		}
		return chaostest.None
	}
	dial := chaostest.Dialer(cluster.InProcessDialer(), script, 0)
	f, _, err := cluster.SolvePCG(sys, addrs(3), chaosOpts(dial))
	if !errors.Is(err, cluster.ErrWorker) {
		t.Fatalf("want ErrWorker, got %v", err)
	}
	if f != nil {
		t.Fatal("failed solve must not return a solution")
	}
}

// TestSlowWorkerTimesOutAndRebinds injects a 2s latency into one worker;
// the 250ms round deadline must declare it dead and move its shard.
func TestSlowWorkerTimesOutAndRebinds(t *testing.T) {
	_, sys := buildSystem(t, 65, 50, 12)
	want := faultFree(t, sys, 4)
	script := func(addr, method string, n int) chaostest.Fault {
		if addr == "w2" && n >= 4 {
			return chaostest.Delay
		}
		return chaostest.None
	}
	dial := chaostest.Dialer(cluster.InProcessDialer(), script, 2*time.Second)
	start := time.Now()
	f, res, err := cluster.SolvePCG(sys, addrs(4), chaosOpts(dial))
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if res.Restarts < 1 {
		t.Fatalf("slow worker not recovered: %+v", res)
	}
	if !mat.VecEqual(f, want, 1e-8) {
		t.Fatal("solution after slow-worker rebind differs from fault-free run")
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("solve took %v; deadline not enforced", elapsed)
	}
}

// TestDroppedConnectionRecovers swallows one call without closing the
// session — the round deadline is the only thing that can unstick it.
func TestDroppedConnectionRecovers(t *testing.T) {
	_, sys := buildSystem(t, 67, 45, 11)
	want := faultFree(t, sys, 4)
	script := func(addr, method string, n int) chaostest.Fault {
		if addr == "w0" && n == 4 {
			return chaostest.Drop
		}
		return chaostest.None
	}
	dial := chaostest.Dialer(cluster.InProcessDialer(), script, 0)
	f, res, err := cluster.SolvePCG(sys, addrs(4), chaosOpts(dial))
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if res.Restarts < 1 || res.Rebinds < 1 {
		t.Fatalf("drop not recovered: %+v", res)
	}
	if !mat.VecEqual(f, want, 1e-8) {
		t.Fatal("solution after dropped call differs from fault-free run")
	}
}

// TestDuplicateDeliveryBitwise delivers every RPC twice. The sequence-number
// idempotency must make the duplicates invisible: no restarts, and a
// bitwise-identical solution.
func TestDuplicateDeliveryBitwise(t *testing.T) {
	_, sys := buildSystem(t, 69, 55, 14)
	want := faultFree(t, sys, 4)
	script := func(addr, method string, n int) chaostest.Fault {
		return chaostest.Duplicate
	}
	dial := chaostest.Dialer(cluster.InProcessDialer(), script, 0)
	f, res, err := cluster.SolvePCG(sys, addrs(4), chaosOpts(dial))
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 0 || res.Rebinds != 0 {
		t.Fatalf("duplicates must not trigger recovery: %+v", res)
	}
	if !mat.VecEqual(f, want, 0) {
		t.Fatal("duplicated delivery changed the solution")
	}
}

// TestCrashWithoutRecoveryTyped pins the fail-fast configuration: with
// recovery off (MaxRestarts < 0) a crashed worker surfaces as ErrWorker on
// the first failure — no rebind, and never a solution.
func TestCrashWithoutRecoveryTyped(t *testing.T) {
	_, sys := buildSystem(t, 71, 40, 10)
	crash := func(addr, method string, n int) chaostest.Fault {
		if addr == "w1" && n == 3 {
			return chaostest.Close
		}
		return chaostest.None
	}
	opts := chaosOpts(chaostest.Dialer(cluster.InProcessDialer(), crash, 0))
	opts.MaxRestarts = -1
	f, res, err := cluster.SolvePCG(sys, addrs(2), opts)
	if !errors.Is(err, cluster.ErrWorker) {
		t.Fatalf("want ErrWorker, got %v", err)
	}
	if f != nil {
		t.Fatal("failed solve must not return a solution")
	}
	if res.Restarts != 0 || res.Rebinds != 0 {
		t.Fatalf("recovery ran with MaxRestarts < 0: %+v", res)
	}
}
