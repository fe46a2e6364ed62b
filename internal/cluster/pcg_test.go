package cluster

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/randx"
	"repro/internal/synth"
)

// figSystem builds a propagation system from the paper's synthetic
// pipeline (the figs 1–4 inputs): model draw, paper bandwidth, full RBF
// graph, labeled-first problem.
func figSystem(t *testing.T, model synth.Model, n, m int, seed int64) (*core.Problem, *core.PropagationSystem) {
	t.Helper()
	ds, err := synth.Generate(randx.New(seed), model, n, m)
	if err != nil {
		t.Fatal(err)
	}
	h, err := kernel.PaperBandwidth(n, synth.Dim)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.New(kernel.Gaussian, h)
	if err != nil {
		t.Fatal(err)
	}
	b, err := graph.NewBuilder(k)
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Build(ds.X)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProblemLabeledFirst(g, ds.YLabeled())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.BuildPropagationSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, sys
}

// eightAddrs are logical in-process worker addresses.
func eightAddrs() []string {
	addrs := make([]string, 8)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("inproc-%d", i)
	}
	return addrs
}

// TestSolvePCGDeterminismAcrossShardCounts is the determinism harness: on
// each of the figs 1–4 input families, the distributed solution must be
// bitwise-identical across 1/2/4/8 shards and agree with the single-node
// direct solver to tolerance.
func TestSolvePCGDeterminismAcrossShardCounts(t *testing.T) {
	figs := []struct {
		name  string
		model synth.Model
		n, m  int
		seed  int64
	}{
		{"fig1", synth.Model1, 60, 30, 101},
		{"fig2", synth.Model1, 100, 200, 102},
		{"fig3", synth.Model2, 60, 30, 103},
		{"fig4", synth.Model2, 100, 200, 104},
	}
	for _, fig := range figs {
		fig := fig
		t.Run(fig.name, func(t *testing.T) {
			p, sys := figSystem(t, fig.model, fig.n, fig.m, fig.seed)
			want, err := core.SolveHard(p)
			if err != nil {
				t.Fatal(err)
			}
			var ref []float64
			for _, shards := range []int{1, 2, 4, 8} {
				f, res, err := SolvePCG(sys, eightAddrs(), PCGOptions{
					Shards: shards,
					Tol:    1e-12,
					Dialer: InProcessDialer(),
				})
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if !mat.VecEqual(f, want.FUnlabeled, 1e-8) {
					t.Fatalf("shards=%d: distributed solution differs from single-node solver", shards)
				}
				if res.Iterations <= 0 || res.Residual > 1e-9 {
					t.Fatalf("shards=%d: result metadata %+v", shards, res)
				}
				if wantShards := min(shards, sys.M()); res.Shards != wantShards {
					t.Fatalf("shards=%d: reported %d shards", shards, res.Shards)
				}
				if ref == nil {
					ref = f
					continue
				}
				if !mat.VecEqual(f, ref, 0) {
					t.Fatalf("shards=%d: solution not bitwise-identical to 1-shard run", shards)
				}
			}
		})
	}
}

// TestSolvePCGTransportBitwise pins the TCP engine to the in-process
// reference: gob round-trips float64 exactly and the arithmetic is
// identical, so the transports must agree bitwise.
func TestSolvePCGTransportBitwise(t *testing.T) {
	_, sys := testSystem(t, 51, 48, 12)
	fin, _, err := SolvePCG(sys, eightAddrs()[:4], PCGOptions{Tol: 1e-12, Dialer: InProcessDialer()})
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for i := 0; i < 4; i++ {
		w, err := StartWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		addrs = append(addrs, w.Addr())
	}
	ftcp, res, err := SolvePCG(sys, addrs, PCGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecEqual(fin, ftcp, 0) {
		t.Fatal("TCP and in-process transports disagree bitwise")
	}
	if res.Workers != 4 || res.Restarts != 0 || res.Rebinds != 0 {
		t.Fatalf("unexpected result metadata %+v", res)
	}
}

// TestSolvePCGAgreesWithOracles checks the distributed engine against the
// dense-Cholesky oracle and against the paper's label-propagation
// iteration (Eq. 5) on the same problem.
func TestSolvePCGAgreesWithOracles(t *testing.T) {
	p, sys := testSystem(t, 53, 36, 9)
	fp, _, err := SolvePCG(sys, eightAddrs()[:2], PCGOptions{Tol: 1e-12, Dialer: InProcessDialer()})
	if err != nil {
		t.Fatal(err)
	}
	chol, err := core.SolveHard(p, core.WithMethod(core.MethodCholesky))
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecEqual(fp, chol.FUnlabeled, 1e-8) {
		t.Fatal("PCG and dense Cholesky disagree beyond tolerance")
	}
	prop, err := core.SolveHard(p, core.WithMethod(core.MethodPropagation), core.WithTolerance(1e-12))
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecEqual(fp, prop.FUnlabeled, 1e-8) {
		t.Fatal("PCG and label propagation disagree beyond tolerance")
	}
}

func TestSolvePCGValidation(t *testing.T) {
	if _, _, err := SolvePCG(nil, []string{"x"}, PCGOptions{}); !errors.Is(err, ErrParam) {
		t.Fatal("nil system must error")
	}
	_, sys := testSystem(t, 55, 10, 4)
	if _, _, err := SolvePCG(sys, nil, PCGOptions{}); !errors.Is(err, ErrParam) {
		t.Fatal("no addresses must error")
	}
}

// TestWorkerServicePCGValidation exercises the Bind/Start/Mul/Update/Gather
// validation branches directly.
func TestWorkerServicePCGValidation(t *testing.T) {
	svc := NewWorkerService()
	var red ReduceReply
	var mul MulReply
	var gat GatherReply
	if err := svc.Start(&StartArgs{Shard: 0, Epoch: 1}, &red); !errors.Is(err, ErrParam) {
		t.Fatal("start before bind must error")
	}
	if err := svc.Mul(&MulArgs{Shard: 0, Epoch: 1, Seq: 1}, &mul); !errors.Is(err, ErrParam) {
		t.Fatal("mul before bind must error")
	}
	if err := svc.Gather(&GatherArgs{Shard: 0, Epoch: 1}, &gat); !errors.Is(err, ErrParam) {
		t.Fatal("gather before bind must error")
	}
	if err := svc.Bind(&BindArgs{Lo: 1, Hi: 1, M: 4, Quantum: 1}, &BindReply{}); !errors.Is(err, ErrParam) {
		t.Fatal("empty block must error")
	}
	if err := svc.Bind(&BindArgs{Lo: 1, Hi: 3, M: 4, Quantum: 2, B: []float64{1, 1}, RowPtr: []int{0, 0, 0}}, &BindReply{}); !errors.Is(err, ErrParam) {
		t.Fatal("misaligned block must error")
	}
	// A 2-row diagonal block, properly aligned.
	good := &BindArgs{
		Shard: 0, Epoch: 2, Lo: 0, Hi: 2, M: 4, Quantum: 2,
		RowPtr: []int{0, 1, 2}, Cols: []int{0, 1}, Vals: []float64{2, 2},
		B: []float64{1, 1},
	}
	if err := svc.Bind(good, &BindReply{}); err != nil {
		t.Fatal(err)
	}
	// Rebind fencing: an older epoch is stale, a newer one wins.
	stale := *good
	stale.Epoch = 1
	if err := svc.Bind(&stale, &BindReply{}); !errors.Is(err, ErrStale) {
		t.Fatal("stale rebind must be fenced")
	}
	// Missing positive diagonal is rejected.
	noDiag := *good
	noDiag.Epoch = 3
	noDiag.Cols = []int{1, 1}
	if err := svc.Bind(&noDiag, &BindReply{}); !errors.Is(err, ErrParam) {
		t.Fatal("missing diagonal must error")
	}
	// Start: wrong lengths, wrong epoch direction.
	if err := svc.Start(&StartArgs{Shard: 0, Epoch: 2, X0: []float64{0}}, &red); !errors.Is(err, ErrParam) {
		t.Fatal("short x0 must error")
	}
	if err := svc.Start(&StartArgs{Shard: 0, Epoch: 1, X0: []float64{0, 0}}, &red); !errors.Is(err, ErrStale) {
		t.Fatal("old-epoch start must be stale")
	}
	if err := svc.Start(&StartArgs{Shard: 0, Epoch: 2, X0: []float64{0, 0}}, &red); err != nil {
		t.Fatal(err)
	}
	if len(red.Rho) != 1 || len(red.RR) != 1 {
		t.Fatalf("reduce reply %+v", red)
	}
	// Mul: out-of-order seq and wrong epoch are stale; a valid call works;
	// its duplicate replays the cached partials.
	if err := svc.Mul(&MulArgs{Shard: 0, Epoch: 1, Seq: 1}, &mul); !errors.Is(err, ErrStale) {
		t.Fatal("old-epoch mul must be stale")
	}
	if err := svc.Mul(&MulArgs{Shard: 0, Epoch: 2, Seq: 2}, &mul); !errors.Is(err, ErrStale) {
		t.Fatal("out-of-order mul must be stale")
	}
	if err := svc.Mul(&MulArgs{Shard: 0, Epoch: 2, Seq: 1}, &mul); err != nil {
		t.Fatal(err)
	}
	pi := mul.Pi[0]
	var mul2 MulReply
	if err := svc.Mul(&MulArgs{Shard: 0, Epoch: 2, Seq: 1}, &mul2); err != nil {
		t.Fatal(err)
	}
	if mul2.Pi[0] != pi {
		t.Fatal("duplicate mul reply differs")
	}
	// Update: phase discipline, then duplicate replay.
	if err := svc.Update(&UpdateArgs{Shard: 0, Epoch: 2, Seq: 3}, &red); !errors.Is(err, ErrStale) {
		t.Fatal("out-of-order update must be stale")
	}
	if err := svc.Update(&UpdateArgs{Shard: 0, Epoch: 2, Seq: 2, Alpha: 0.5}, &red); err != nil {
		t.Fatal(err)
	}
	rho := red.Rho[0]
	var red2 ReduceReply
	if err := svc.Update(&UpdateArgs{Shard: 0, Epoch: 2, Seq: 2, Alpha: 0.5}, &red2); err != nil {
		t.Fatal(err)
	}
	if red2.Rho[0] != rho {
		t.Fatal("duplicate update reply differs")
	}
	if err := svc.Gather(&GatherArgs{Shard: 0, Epoch: 1}, &gat); !errors.Is(err, ErrStale) {
		t.Fatal("old-epoch gather must be stale")
	}
	if err := svc.Gather(&GatherArgs{Shard: 0, Epoch: 2}, &gat); err != nil {
		t.Fatal(err)
	}
	if len(gat.X) != 2 {
		t.Fatalf("gather returned %d values", len(gat.X))
	}
}
