package cluster

import (
	"errors"
	"net/rpc"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/randx"
)

// dialWorker opens a raw RPC client to a worker for failure-injection
// tests.
func dialWorker(addr string) (*rpc.Client, error) {
	return rpc.Dial("tcp", addr)
}

// testSystem builds a propagation system from a random full-RBF problem.
func testSystem(t *testing.T, seed int64, nTotal, nLabeled int) (*core.Problem, *core.PropagationSystem) {
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

func TestBuildPropagationSystem(t *testing.T) {
	p, sys := testSystem(t, 1, 12, 5)
	if sys.M() != p.M() {
		t.Fatalf("M = %d, want %d", sys.M(), p.M())
	}
	if len(sys.D) != sys.M() || len(sys.B) != sys.M() || len(sys.Unlabeled) != sys.M() {
		t.Fatal("system slices inconsistent")
	}
	for _, d := range sys.D {
		if d <= 0 {
			t.Fatal("nonpositive degree")
		}
	}
}

// TestSolvePCGMaxIterExceeded checks that an exhausted iteration budget
// fails with ErrNotConverged rather than returning an unconverged iterate.
func TestSolvePCGMaxIterExceeded(t *testing.T) {
	_, sys := testSystem(t, 7, 40, 2)
	f, _, err := SolvePCG(sys, []string{"a", "b"}, PCGOptions{Tol: 1e-14, MaxIter: 2, Dialer: InProcessDialer()})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("want ErrNotConverged, got %v", err)
	}
	if f != nil {
		t.Fatal("unconverged solve must not return a solution")
	}
}

func TestResidualAtSolution(t *testing.T) {
	p, sys := testSystem(t, 9, 20, 6)
	sol, err := core.SolveHard(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Residual(sol.FUnlabeled)
	if err != nil {
		t.Fatal(err)
	}
	if res > 1e-9 {
		t.Fatalf("residual at exact solution = %g", res)
	}
	zero, err := sys.Residual(make([]float64, sys.M()))
	if err != nil {
		t.Fatal(err)
	}
	if zero <= res {
		t.Fatal("residual at zero must exceed residual at solution")
	}
}

// TestSolvePCGWorkerReuse checks that one worker serves consecutive solves
// of different problems: each solve's Bind replaces the shard's previous
// block.
func TestSolvePCGWorkerReuse(t *testing.T) {
	w, err := StartWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, seed := range []int64{21, 22} {
		p, sys := testSystem(t, seed, 15, 5)
		want, err := core.SolveHard(p)
		if err != nil {
			t.Fatal(err)
		}
		f, _, err := SolvePCG(sys, []string{w.Addr()}, PCGOptions{Tol: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		if !mat.VecEqual(f, want.FUnlabeled, 1e-8) {
			t.Fatalf("seed %d: reuse produced a wrong answer", seed)
		}
	}
}

// TestSolvePCGDialFailure checks that an unreachable worker fails the solve
// with ErrWorker once no worker is left to rebind its shard to.
func TestSolvePCGDialFailure(t *testing.T) {
	_, sys := testSystem(t, 15, 10, 4)
	// Reserve a port and close it so the dial fails fast.
	w, err := StartWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := w.Addr()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := SolvePCG(sys, []string{addr}, PCGOptions{}); !errors.Is(err, ErrWorker) {
		t.Fatalf("want ErrWorker, got %v", err)
	}
}

func TestWorkerFailureMidSession(t *testing.T) {
	// A worker dying between calls must surface as an RPC error on the
	// next call over the same connection — the failure SolvePCG absorbs by
	// rebinding, or reports as ErrWorker once its restarts are spent.
	_, sys := testSystem(t, 19, 12, 4)
	w, err := StartWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := dialWorker(w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	plan, err := NewPlan(sys.W, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	blk := extractShard(sys, plan, 0)
	sh := &plan.Shards[0]
	args := &BindArgs{
		Shard: 0, Epoch: 1, Lo: sh.Lo, Hi: sh.Hi, M: plan.M, Quantum: plan.Quantum,
		RowPtr: blk.rowptr, Cols: blk.cols, Vals: blk.vals, B: blk.b, Halo: sh.Halo, Boundary: sh.Boundary,
	}
	if err := client.Call("Propagation.Bind", args, &BindReply{}); err != nil {
		t.Fatal(err)
	}
	var reply ReduceReply
	start := &StartArgs{Shard: 0, Epoch: 1, X0: make([]float64, sh.Len())}
	if err := client.Call("Propagation.Start", start, &reply); err != nil {
		t.Fatalf("healthy start failed: %v", err)
	}
	// Kill the worker, including the live session.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var mul MulReply
	if err := client.Call("Propagation.Mul", &MulArgs{Shard: 0, Epoch: 1, Seq: 1}, &mul); err == nil {
		t.Fatal("mul after worker death must error")
	}
}

func TestWorkerNoGoroutineLeak(t *testing.T) {
	// Start/stop workers repeatedly; the goroutine count must return to
	// its baseline (Close waits for the accept loop and all sessions).
	runtimeGC := func() {
		for i := 0; i < 3; i++ {
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
	}
	runtimeGC()
	base := runtime.NumGoroutine()
	_, sys := testSystem(t, 23, 12, 4)
	for round := 0; round < 5; round++ {
		w, err := StartWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := SolvePCG(sys, []string{w.Addr()}, PCGOptions{Tol: 1e-8}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	runtimeGC()
	after := runtime.NumGoroutine()
	if after > base+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", base, after)
	}
}

// TestWorkerServiceValidation feeds Bind malformed blocks: every shape,
// index, and ordering defect a coordinator (or a corrupted payload) could
// ship is rejected with ErrParam before anything is installed.
func TestWorkerServiceValidation(t *testing.T) {
	svc := NewWorkerService()
	good := func() *BindArgs {
		return &BindArgs{
			Shard: 0, Epoch: 1, Lo: 0, Hi: 2, M: 4, Quantum: 2,
			RowPtr: []int{0, 2, 3}, Cols: []int{0, 2, 1}, Vals: []float64{2, -1, 2},
			B: []float64{1, 1}, Halo: []int{3}, Boundary: []int{1},
		}
	}
	cases := map[string]func(a *BindArgs){
		"block past m":        func(a *BindArgs) { a.Hi = 5 },
		"negative lo":         func(a *BindArgs) { a.Lo = -2 },
		"short rhs":           func(a *BindArgs) { a.B = a.B[:1] },
		"rowptr length":       func(a *BindArgs) { a.RowPtr = []int{0, 3} },
		"rowptr not at zero":  func(a *BindArgs) { a.RowPtr = []int{1, 2, 3} },
		"rowptr decreasing":   func(a *BindArgs) { a.RowPtr = []int{0, 4, 3} },
		"cols/vals mismatch":  func(a *BindArgs) { a.Vals = a.Vals[:2] },
		"column out of range": func(a *BindArgs) { a.Cols = []int{0, 7, 1} },
		"halo inside block":   func(a *BindArgs) { a.Halo = []int{1} },
		"halo out of range":   func(a *BindArgs) { a.Halo = []int{4} },
		"halo not ascending":  func(a *BindArgs) { a.Halo = []int{3, 2}; a.Cols = []int{0, 3, 1} },
		"boundary outside":    func(a *BindArgs) { a.Boundary = []int{2} },
		"boundary unsorted":   func(a *BindArgs) { a.Boundary = []int{1, 0} },
	}
	for name, mutate := range cases {
		a := good()
		mutate(a)
		if err := svc.Bind(a, &BindReply{}); !errors.Is(err, ErrParam) {
			t.Errorf("%s: got %v, want ErrParam", name, err)
		}
	}
	if err := svc.Bind(good(), &BindReply{}); err != nil {
		t.Fatalf("well-formed block rejected: %v", err)
	}
	var gat GatherReply
	if err := svc.Gather(&GatherArgs{Shard: 0, Epoch: 1}, &gat); err != nil || len(gat.X) != 2 {
		t.Fatalf("gather after bind: %v %v", gat.X, err)
	}
}
