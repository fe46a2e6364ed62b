package main

import (
	"fmt"
	"time"

	graphssl "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/spatial"
	"repro/serve"
)

// fitCase is one workload's fit path: its inputs, the graphssl.Fit options
// and the serve.NewModel options its set-up uses. The traced run recomposes
// the same fit from the layers to time each one.
type fitCase struct {
	x       [][]float64
	y       []float64
	labeled []int // nil: the first len(y) points, the paper's layout
	kind    graphssl.Kernel
	bw      float64 // 0: the paper rule h = (log n / n)^(1/d)
	knn     int
	workers int // 0: GOMAXPROCS
	anchors serve.AnchorSet
}

func (c *fitCase) fitOptions() []graphssl.Option {
	opts := []graphssl.Option{graphssl.WithKernel(c.kind), graphssl.WithWorkers(c.workers)}
	if c.bw > 0 {
		opts = append(opts, graphssl.WithBandwidth(c.bw))
	} else {
		opts = append(opts, graphssl.WithPaperBandwidth())
	}
	if c.knn > 0 {
		opts = append(opts, graphssl.WithKNN(c.knn))
	}
	return opts
}

// servable runs the public path from inputs to a servable model:
// graphssl.Fit, Result.Snapshot, serve.NewModel.
func (c *fitCase) servable() (*graphssl.Result, *serve.Model, error) {
	res, err := graphssl.Fit(c.x, c.y, c.labeled, c.fitOptions()...)
	if err != nil {
		return nil, nil, fmt.Errorf("fit: %w", err)
	}
	snap, err := res.Snapshot(c.x, c.y)
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: %w", err)
	}
	m, err := serve.NewModel(snap, serve.WithAnchorSet(c.anchors), serve.WithWorkers(1))
	if err != nil {
		return nil, nil, fmt.Errorf("model: %w", err)
	}
	return res, m, nil
}

// composed is a fit recomposed from its layers.
type composed struct {
	p      *core.Problem
	g      *graph.Graph
	sol    *core.Solution
	model  *serve.Model
	wall   time.Duration // from the first layer call to the last
	spans  time.Duration // sum of the top-level spans
	layers map[string]time.Duration
}

// compose runs the fit as graphssl.Fit does — bandwidth, graph, problem,
// solve — then the snapshot and model build, one top-level span per layer
// call in one trace.
func (c *fitCase) compose(tr *tracer) (*composed, error) {
	out := &composed{layers: map[string]time.Duration{}}
	var prev span
	step := func(name string, f func() error) error {
		var sp span
		if len(out.layers) == 0 {
			sp = tr.begin(name)
		} else {
			sp = prev.sibling(name)
		}
		err := f()
		d := sp.end()
		prev = sp
		out.layers[name] = d
		out.spans += d
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	labeled := c.labeled
	if labeled == nil {
		labeled = make([]int, len(c.y))
		for i := range labeled {
			labeled[i] = i
		}
	}
	var (
		k    *kernel.K
		bw   = c.bw
		snap *graphssl.ModelSnapshot
	)
	start := time.Now()
	err := step("graphssl.bandwidth", func() (err error) {
		if bw == 0 {
			if bw, err = kernel.PaperBandwidth(len(labeled), len(c.x[0])); err != nil {
				return err
			}
		}
		k, err = kernel.New(c.kind, bw)
		return err
	})
	if err == nil {
		err = step("graph.build", func() error {
			bopts := []graph.Option{graph.WithWorkers(c.workers)}
			if c.knn > 0 {
				bopts = append(bopts, graph.WithKNN(c.knn))
			}
			b, err := graph.NewBuilder(k, bopts...)
			if err != nil {
				return err
			}
			out.g, err = b.Build(c.x)
			return err
		})
	}
	if err == nil {
		err = step("core.problem", func() (err error) {
			out.p, err = core.NewProblem(out.g, labeled, c.y)
			return err
		})
	}
	if err == nil {
		// The options graphssl.Fit hands the exact solver.
		err = step("core.solve", func() (err error) {
			out.sol, err = core.SolveSoft(out.p, 0,
				core.WithMethod(core.MethodAuto),
				core.WithTolerance(1e-10),
				core.WithMaxIter(0),
				core.WithWorkers(c.workers),
				core.WithPreconditioner(core.PrecondAuto))
			return err
		})
	}
	if err == nil {
		err = step("graphssl.snapshot", func() (err error) {
			res := &graphssl.Result{Scores: out.sol.F, Labeled: out.p.Labeled(), Kernel: c.kind, Bandwidth: bw, KNN: c.knn}
			snap, err = res.Snapshot(c.x, c.y)
			return err
		})
	}
	if err == nil {
		err = step("serve.model_build", func() (err error) {
			out.model, err = serve.NewModel(snap, serve.WithAnchorSet(c.anchors), serve.WithWorkers(1))
			return err
		})
	}
	out.wall = time.Since(start)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// traceFit is the traced run's view of a workload's fit: it recomposes the
// fit from the layers, checks the composition reproduces graphssl.Fit
// bitwise, reports the tracing overhead against the untraced public path,
// and probes the layers underneath the solve.
func traceFit(r *run, c *fitCase) (*composed, error) {
	// The first public fit warms the heap and code paths; the second one,
	// after the traced composition, is the untraced reference time.
	ref, _, err := c.servable()
	r.op(err)
	if err != nil {
		return nil, err
	}
	cf, err := c.compose(r.tr)
	r.op(err)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	_, _, err = c.servable()
	untraced := time.Since(t0)
	r.op(err)
	if err != nil {
		return nil, err
	}
	r.check(bitwiseEqual(cf.sol.F, ref.Scores), "traced fit scores differ from graphssl.Fit")
	coverage := float64(cf.spans) / float64(cf.wall)
	r.check(coverage >= 0.95 && coverage <= 1.0001, "top-level fit spans cover %.4f of the wall clock", coverage)

	r.set("graph.build_s", cf.layers["graph.build"].Seconds())
	r.set("graph.nnz", float64(cf.g.Weights().NNZ()))
	r.set("core.problem_s", cf.layers["core.problem"].Seconds())
	r.set("core.solve_s", cf.layers["core.solve"].Seconds())
	r.set("graphssl.snapshot_s", cf.layers["graphssl.snapshot"].Seconds())
	r.set("serve.model_build_s", cf.layers["serve.model_build"].Seconds())
	r.set("trace.span_coverage", coverage)
	r.set("trace.overhead_pct", 100*(cf.wall.Seconds()-untraced.Seconds())/untraced.Seconds())
	r.logf("traced fit: wall %.4f s, spans %.4f s (coverage %.4f), untraced %.4f s, solver %v/%s, %d iterations",
		cf.wall.Seconds(), cf.spans.Seconds(), coverage, untraced.Seconds(), cf.sol.Method, cf.sol.Precond, cf.sol.Iterations)

	if err := probeSolve(r, c, cf); err != nil {
		return nil, err
	}
	if c.knn > 0 {
		probeSpatial(r, c)
	}
	return cf, nil
}

// repeatFor calls f until it has run at least atLeast times and for at
// least budget, and returns the mean time per call.
func repeatFor(atLeast int, budget time.Duration, f func()) time.Duration {
	start := time.Now()
	n := 0
	for n < atLeast || time.Since(start) < budget {
		f()
		n++
	}
	return time.Since(start) / time.Duration(n)
}

// probeSolve times the layers under the solve on the fit's own system: the
// system assembly and health probe that every auto solve runs, and — when
// the solve took the IC(0)+RCM CG path — the reordering, the factorization,
// the PCG iterations with the solver's own options, and single SpMV and
// preconditioner applications. Layers the solve did not use read 0.
func probeSolve(r *run, c *fitCase, cf *composed) error {
	root := r.tr.begin("bench.solve_probes")
	defer root.end()

	sp := root.child("core.system")
	sys, err := core.BuildPropagationSystem(cf.p)
	r.set("core.system_s", sp.end().Seconds())
	r.op(err)
	if err != nil {
		return fmt.Errorf("propagation system: %w", err)
	}
	a, err := hardMatrix(sys)
	if err != nil {
		return err
	}
	sp = root.child("core.health")
	_, err = core.ProbeHealth(a)
	r.set("core.health_s", sp.end().Seconds())
	r.op(err)

	solve := cf.layers["core.solve"].Seconds()
	if cf.sol.Method != core.MethodCG || cf.sol.Precond != "ic0+rcm" {
		r.set("core.solve_unattributed_s", solve)
		return nil
	}

	sp = root.child("sparse.rcm")
	perm, err := sparse.RCM(a)
	var pa *sparse.CSR
	if err == nil {
		pa, err = a.Permute(perm)
	}
	rcm := sp.end().Seconds()
	r.op(err)
	if err != nil {
		return fmt.Errorf("rcm: %w", err)
	}
	sp = root.child("precond.ic0_setup")
	m, err := precond.Auto(pa)
	ic0 := sp.end().Seconds()
	r.op(err)
	if err != nil {
		return fmt.Errorf("ic0: %w", err)
	}
	n := pa.Rows()
	pb := make([]float64, n)
	sparse.PermuteVecTo(pb, sys.B, perm)
	sp = root.child("sparse.pcg")
	x, res, err := sparse.PCG(pa, pb, sparse.PCGOptions{
		CGOptions: sparse.CGOptions{Tol: 1e-10, Workers: c.workers, StagnationWindow: 50},
		M:         m,
	})
	pcg := sp.end().Seconds()
	r.op(err)
	if err != nil {
		return fmt.Errorf("pcg: %w", err)
	}
	r.check(res.Iterations == cf.sol.Iterations, "PCG probe took %d iterations, the solve %d", res.Iterations, cf.sol.Iterations)

	y := make([]float64, n)
	sp = root.child("sparse.spmv")
	spmv := repeatFor(10, 50*time.Millisecond, func() { _ = pa.MulVecToWorkers(y, x, c.workers) })
	sp.end()
	sp = root.child("precond.apply")
	apply := repeatFor(10, 50*time.Millisecond, func() { m.Apply(y, x) })
	sp.end()

	// Computed bytes of one SpMV: column index and value per stored entry,
	// row pointer, x and y entries per row.
	bytes := 16*float64(pa.NNZ()) + 24*float64(n)
	gbps := bytes / spmv.Seconds() / 1e9
	r.set("sparse.rcm_s", rcm)
	r.set("precond.ic0_setup_s", ic0)
	r.set("sparse.pcg_s", pcg)
	r.set("sparse.pcg_iters", float64(res.Iterations))
	r.set("sparse.spmv_us", us(spmv))
	r.set("precond.apply_us", us(apply))
	r.set("sparse.spmv_gbps", gbps)
	r.set("sparse.spmv_working_set_mb", bytes/1e6)
	r.set("core.solve_unattributed_s", solve-(rcm+ic0+pcg))
	return nil
}

// hardMatrix assembles A = D − W of the propagation system in the entry
// order the solver's own assembly uses.
func hardMatrix(sys *core.PropagationSystem) (*sparse.CSR, error) {
	m := sys.M()
	coo := sparse.NewCOO(m, m)
	for k := 0; k < m; k++ {
		if err := coo.Add(k, k, sys.D[k]); err != nil {
			return nil, fmt.Errorf("assemble: %w", err)
		}
		cols, vals := sys.W.RowNNZ(k)
		for c, j := range cols {
			if err := coo.Add(k, j, -vals[c]); err != nil {
				return nil, fmt.Errorf("assemble: %w", err)
			}
		}
	}
	return coo.ToCSR(), nil
}

// probeSpatial times the KD-tree the kNN graph build uses: construction
// over the fit's points and one k-NN query per point of a sample.
func probeSpatial(r *run, c *fitCase) {
	root := r.tr.begin("bench.spatial_probes")
	defer root.end()
	sp := root.child("spatial.kdtree_build")
	t, err := spatial.NewKDTree(c.x, c.workers)
	r.set("spatial.kdtree_build_s", sp.end().Seconds())
	r.op(err)
	if err != nil {
		return
	}
	q := t.NewKNNQuery(c.knn)
	n := min(len(c.x), 8192)
	var buf []int32
	sp = root.child("spatial.knn_query")
	for i := 0; i < n; i++ {
		buf = q.Do(c.x[i], int32(i), -1, buf[:0])
	}
	r.set("spatial.knn_query_us", us(sp.end())/float64(n))
}

// probeRequest is one request of a workload's query mix, for in-process
// replay against the model that serves it.
type probeRequest struct {
	model *serve.Model
	pts   [][]float64
}

// probePredict times the model layer and the distance kernel under it on
// the workload's own query mix: Model.PredictBatch per request, and
// kernel.Dist2Rows of single queries against one model's anchors
// (3·d computed flops per pair).
func probePredict(r *run, requests []probeRequest, anchors [][]float64) {
	root := r.tr.begin("bench.predict_probes")
	defer root.end()
	points := 0
	sp := root.child("serve.predict_batch")
	for _, req := range requests {
		_, errs := req.model.PredictBatch(req.pts)
		r.check(errs == nil, "in-process prediction failed: %v", errs)
		points += len(req.pts)
	}
	r.set("serve.predict_us_per_point", us(sp.end())/float64(points))

	d := len(anchors[0])
	out := make([]float64, len(anchors))
	var qs [][]float64
	for _, req := range requests {
		qs = append(qs, req.pts...)
	}
	i := 0
	sp = root.child("kernel.dist2_rows")
	per := repeatFor(len(qs), 50*time.Millisecond, func() {
		kernel.Dist2Rows(qs[i%len(qs)], anchors, out)
		i++
	})
	sp.end()
	r.set("kernel.dist2_gflops", 3*float64(d)*float64(len(anchors))/per.Seconds()/1e9)
}
