package main

import (
	"fmt"
	"io"
)

// suiteArgs bundles the parsed command-line parameters handed to suite
// runners, so every suite sees one flat view of the flags it cares about.
type suiteArgs struct {
	// parallel suite
	n, d, knn, cgN, cgM int
	// spatial suite
	sn, sd        int
	sradius, snwH float64
	snwLab        int
	// serve suite
	svAnch, svD, svReqs int
	// cluster suite
	cn, cLab, cWork, cReps int
	// largen suite
	ln, lcmp, llab, lknn int
	ltol                 float64
	// stream suite
	stn, strate, stsecs, stbatch int
	stdelta                      float64
	// shared
	repeats int
}

// suiteDef is one registered benchmark suite: the -suite name, the default
// -out path, a one-line description, and the runner.
type suiteDef struct {
	Name       string
	DefaultOut string
	Desc       string
	Run        func(out string, a suiteArgs)
}

// suiteRegistry is the single source of truth mapping -suite names to
// runners and default output paths. New suites register here; -list prints
// the table.
var suiteRegistry = []suiteDef{
	{
		Name:       "parallel",
		DefaultOut: "results/BENCH_parallel.json",
		Desc:       "worker scaling of the distance / k-NN / SpMV hot paths vs the serial baselines",
		Run:        runParallelSuite,
	},
	{
		Name:       "spatial",
		DefaultOut: "results/BENCH_spatial.json",
		Desc:       "spatial-index graph construction and NW prediction vs brute force",
		Run:        runSpatialCmd,
	},
	{
		Name:       "robust",
		DefaultOut: "results/BENCH_robust.json",
		Desc:       "pathological-input pipeline: health probe, fallbacks, and robust solves",
		Run:        func(out string, a suiteArgs) { runRobustSuite(out) },
	},
	{
		Name:       "precond",
		DefaultOut: "results/BENCH_precond.json",
		Desc:       "CG vs Jacobi-PCG vs IC(0)-PCG iteration and wall-time comparison",
		Run:        func(out string, a suiteArgs) { runPrecondSuite(out, a.repeats) },
	},
	{
		Name:       "serve",
		DefaultOut: "results/BENCH_serve.json",
		Desc:       "HTTP serving throughput, cached vs uncached, with anchor pruning",
		Run: func(out string, a suiteArgs) {
			runServeSuite(out, serveParams{
				anchors: a.svAnch, d: a.svD,
				requests: a.svReqs, warmup: a.svReqs / 4,
			})
		},
	},
	{
		Name:       "cluster",
		DefaultOut: "results/BENCH_cluster.json",
		Desc:       "distributed fit over TCP workers plus the replicated serve fleet",
		Run: func(out string, a suiteArgs) {
			runClusterSuite(out, clusterParams{
				n: a.cn, labelEvery: a.cLab, degree: 3,
				workers: a.cWork, replicas: a.cReps,
				requests: a.svReqs, repeats: a.repeats,
			})
		},
	},
	{
		Name:       "largen",
		DefaultOut: "results/BENCH_largen.json",
		Desc:       "approximate large-n engine: Nyström fit with certified bound vs exact, plus a single-machine large-n fit+serve",
		Run: func(out string, a suiteArgs) {
			runLargenSuite(out, largenParams{
				n: a.ln, compareN: a.lcmp, labelEvery: a.llab,
				knn: a.lknn, tol: a.ltol, repeats: a.repeats,
			})
		},
	},
	{
		Name:       "stream",
		DefaultOut: "results/BENCH_stream.json",
		Desc:       "streaming ingest: real-time trickle staleness plus incremental refresh vs full refit",
		Run: func(out string, a suiteArgs) {
			runStreamSuite(out, streamParams{
				n: a.stn, rate: a.strate, seconds: a.stsecs,
				batch: a.stbatch, delta: a.stdelta, repeats: a.repeats,
			})
		},
	},
}

// findSuite resolves a -suite name against the registry.
func findSuite(name string) *suiteDef {
	for i := range suiteRegistry {
		if suiteRegistry[i].Name == name {
			return &suiteRegistry[i]
		}
	}
	return nil
}

// suiteNames returns the registered names, in registration order.
func suiteNames() []string {
	names := make([]string, len(suiteRegistry))
	for i, s := range suiteRegistry {
		names[i] = s.Name
	}
	return names
}

// listSuites prints the registry table for the -list flag.
func listSuites(w io.Writer) {
	for _, s := range suiteRegistry {
		fmt.Fprintf(w, "%-10s %-28s %s\n", s.Name, s.DefaultOut, s.Desc)
	}
}
