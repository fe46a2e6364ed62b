package main

import (
	"fmt"
	"runtime"
	"time"

	graphssl "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/randx"
	"repro/internal/synth"
	"repro/serve"
)

// The fit workload: the paper's regime (Model 1, d = 5, few labels, kNN
// graph, hard criterion) at a size where graph construction and the solve
// both carry real load. Its operation is one Fit → Snapshot → NewModel, the
// time from inputs to a servable model.

// fitTol bounds the hard-system relative residual of a fitted solution and
// the sup-norm gap between the iterative and the dense Cholesky solve.
const fitTol = 1e-8

// minFits is the fewest timed fits a run makes, whatever its length.
const minFits = 3

func fitWorkload(r *run) error {
	sz := r.size
	ds, err := synth.Generate(randx.New(r.seed), synth.Model1, sz.fitLabeled, sz.fitUnlabeled)
	if err != nil {
		return fmt.Errorf("fit inputs: %w", err)
	}
	c := &fitCase{x: ds.X, y: ds.YLabeled(), kind: graphssl.Gaussian, knn: 10}
	if r.traced() {
		return fitTraced(r, c)
	}

	// Every fit starts from a collected heap, is its own peak-memory window,
	// and is timed at the nominal host speed of the probes around it.
	var peaks []float64
	var raw time.Duration
	fit := func(c *fitCase) (*graphssl.Result, *serve.Model, time.Duration, error) {
		if err := resetPeakRSS(); err != nil {
			return nil, nil, 0, err
		}
		t0 := time.Now()
		res, m, err := c.servable()
		d := time.Since(t0)
		r.op(err)
		if err != nil {
			return nil, nil, 0, err
		}
		rss, err := peakRSSMB()
		peaks = append(peaks, rss)
		raw += d
		return res, m, time.Duration(float64(d) * r.host.next()), err
	}

	// Set-up warms the fit path on a quarter-size instance of the workload.
	wds, err := synth.Generate(randx.New(r.seed^0x3a7), synth.Model1, sz.fitLabeled/4, sz.fitUnlabeled/4)
	if err != nil {
		return fmt.Errorf("warm-up inputs: %w", err)
	}
	warm := &fitCase{x: wds.X, y: wds.YLabeled(), kind: c.kind, knn: c.knn}
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		_, _, d, err := fit(warm)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	peaks, raw = peaks[:0], 0

	var lat []float64
	var total time.Duration
	var first []float64
	var last *graphssl.Result
	dur := time.Duration(r.seconds * float64(time.Second))
	start := time.Now()
	for len(lat) < minFits || time.Since(start)*time.Duration(len(lat)+1)/time.Duration(len(lat)) <= dur {
		res, m, d, err := fit(c)
		if err != nil {
			return err
		}
		lat = append(lat, ms(d))
		total += d
		if first == nil {
			first = res.Scores
		}
		r.check(bitwiseEqual(res.Scores, first), "fit %d scores differ from the first fit", len(lat))
		r.check(m.NumAnchors() == len(c.y), "model has %d anchors, want %d", m.NumAnchors(), len(c.y))
		last = res
	}
	r.set("setup_s", median(setups))
	r.set("throughput_per_s", float64(len(lat))/total.Seconds())
	r.set("latency_p50_ms", median(append([]float64(nil), lat...)))
	r.set("latency_p95_ms", quantile(lat, 0.95))
	r.set("peak_rss_mb", median(append([]float64(nil), peaks...)))
	r.logf("fit: n=%d labeled + %d unlabeled, %d timed fits, solver %v, %d iterations, %d graph edges; raw mean %.1f ms, normalized mean %.1f ms",
		sz.fitLabeled, sz.fitUnlabeled, len(lat), last.Solver, last.Iterations, last.GraphStats.Edges, ms(raw)/float64(len(lat)), ms(total)/float64(len(lat)))
	r.logf("peak RSS per fit: median %.1f MB of %d fits", median(append([]float64(nil), peaks...)), len(peaks))
	return checkFit(r, c, last)
}

// checkFit verifies a fitted solution: the hard-system relative residual,
// computed here from the propagation system, and — on a smaller instance of
// the same workload, where the dense factorization is affordable — the
// iterative path against the Cholesky solve.
func checkFit(r *run, c *fitCase, res *graphssl.Result) error {
	k, err := kernel.New(c.kind, res.Bandwidth)
	if err != nil {
		return fmt.Errorf("check kernel: %w", err)
	}
	b, err := graph.NewBuilder(k, graph.WithKNN(c.knn))
	if err != nil {
		return fmt.Errorf("check graph builder: %w", err)
	}
	g, err := b.Build(c.x)
	if err != nil {
		return fmt.Errorf("check graph: %w", err)
	}
	p, err := core.NewProblem(g, res.Labeled, c.y)
	if err != nil {
		return fmt.Errorf("check problem: %w", err)
	}
	sys, err := core.BuildPropagationSystem(p)
	if err != nil {
		return fmt.Errorf("check system: %w", err)
	}
	resid := hardResidual(sys, res.UnlabeledScores)
	r.check(resid <= fitTol, "hard-system relative residual %.3g > %.0e", resid, fitTol)

	sz := r.size
	ds, err := synth.Generate(randx.New(r.seed^0x5eed), synth.Model1, sz.checkLabeled, sz.checkUnlabeled)
	if err != nil {
		return fmt.Errorf("check inputs: %w", err)
	}
	small := &fitCase{x: ds.X, y: ds.YLabeled(), kind: c.kind, knn: c.knn}
	// A low auto cutoff sends this size down the IC(0)+RCM CG path the
	// full-size fit takes.
	it, err := graphssl.Fit(small.x, small.y, nil, append(small.fitOptions(), graphssl.WithAutoCutoff(256))...)
	r.op(err)
	if err != nil {
		return err
	}
	ch, err := graphssl.Fit(small.x, small.y, nil, append(small.fitOptions(), graphssl.WithSolver(graphssl.SolverCholesky))...)
	r.op(err)
	if err != nil {
		return err
	}
	gap := supDiff(it.Scores, ch.Scores)
	r.check(it.Solver == graphssl.SolverCG, "small instance solved with %v, want cg", it.Solver)
	r.check(gap <= fitTol, "iterative vs Cholesky sup-norm gap %.3g > %.0e", gap, fitTol)
	r.logf("fit checks: residual %.3g, %d-point iterative vs Cholesky gap %.3g", resid, len(small.x), gap)
	return nil
}

// fitTraced is the fit workload's per-layer run.
func fitTraced(r *run, c *fitCase) error {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	cf, err := traceFit(r, c)
	if err != nil {
		return err
	}
	setGoStats(r, &before, 3) // the warm-up, traced and reference fits

	ds, err := synth.Generate(randx.New(r.seed^0x9e37), synth.Model1, 1, 2048)
	if err != nil {
		return fmt.Errorf("probe inputs: %w", err)
	}
	reqs := make([]probeRequest, len(ds.X))
	for i, q := range ds.X {
		reqs[i] = probeRequest{cf.model, [][]float64{q}}
	}
	probePredict(r, reqs, c.x[:len(c.y)])
	return nil
}

// setGoStats reports the Go runtime's allocation and GC pause since before,
// per operation.
func setGoStats(r *run, before *runtime.MemStats, ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.set("go.alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1e6/float64(max(ops, 1)))
	r.set("go.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
}
