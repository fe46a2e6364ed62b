package main

import (
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sparse"
	"repro/serve"
)

// The cluster suite measures the distributed layer end to end: a large
// hard-criterion system solved by the sharded PCG engine across real local
// TCP workers at several shard counts — asserting the bitwise-determinism
// contract while it times — plus the replicated serve fleet answering
// predict load through the consistent-hash router.

// clusterParams sizes the distributed suite.
type clusterParams struct {
	n          int // total graph nodes (labeled + unlabeled)
	labelEvery int // one labeled anchor per this many nodes
	degree     int // band half-width: neighbours per side in the lattice
	workers    int // local TCP workers the coordinator drives
	replicas   int // serve replicas behind the router
	requests   int // timed predict requests per serve configuration
	repeats    int
}

// clusterFitMeasurement is one distributed solve at a fixed shard count.
type clusterFitMeasurement struct {
	Shards     int     `json:"shards"`
	Workers    int     `json:"workers"`
	Seconds    float64 `json:"seconds"`
	Iterations int     `json:"iterations"`
	Residual   float64 `json:"residual"`
	EdgeCut    int     `json:"edge_cut"`
	HaloTotal  int     `json:"halo_total"`
	Restarts   int     `json:"restarts"`
}

// clusterReport is the JSON document for -suite cluster.
type clusterReport struct {
	Benchmark        string                  `json:"benchmark"`
	Generated        string                  `json:"generated"`
	GoVersion        string                  `json:"go_version"`
	GOMAXPROCS       int                     `json:"gomaxprocs"`
	NumCPU           int                     `json:"num_cpu"`
	Params           map[string]int          `json:"params"`
	Fit              []clusterFitMeasurement `json:"fit"`
	BitwiseIdentical bool                    `json:"bitwise_identical_across_shards"`
	Serve            []serveMeasurement      `json:"serve"`
	Notes            string                  `json:"notes"`
}

// clusterSystem builds the benchmark system directly as a banded lattice —
// n nodes, `degree` neighbours per side with deterministic positive weights,
// one labeled anchor every labelEvery nodes — so suite time measures the
// distributed solve, not graph construction.
func clusterSystem(n, labelEvery, degree int) *core.PropagationSystem {
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		for k := 1; k <= degree; k++ {
			j := i + k
			if j >= n {
				break
			}
			w := (1 + 0.5*math.Sin(float64(31*i+j))) / float64(k)
			if err := coo.AddSym(i, j, w); err != nil {
				log.Fatal(err)
			}
		}
	}
	g, err := graph.FromWeights(coo.ToCSR())
	if err != nil {
		log.Fatal(err)
	}
	var labeled []int
	var y []float64
	for i := 0; i < n; i += labelEvery {
		labeled = append(labeled, i)
		y = append(y, float64(len(labeled)%2))
	}
	p, err := core.NewProblem(g, labeled, y)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.BuildPropagationSystem(p)
	if err != nil {
		log.Fatal(err)
	}
	return sys
}

// runClusterSuite benchmarks the distributed fit and the replicated serve
// fleet, and writes the report.
func runClusterSuite(out string, p clusterParams) {
	report := clusterReport{
		Benchmark:  "cluster",
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Params: map[string]int{
			"n": p.n, "label_every": p.labelEvery, "degree": p.degree,
			"workers": p.workers, "replicas": p.replicas,
			"requests": p.requests, "repeats": p.repeats,
		},
		Notes: "Distributed hard-criterion fit over real local TCP workers " +
			"(net/rpc + gob), timed per shard count on one banded lattice " +
			"system; bitwise_identical_across_shards asserts the fixed " +
			"chunk-reduction contract — every shard count must return the " +
			"bit-identical solution, and the suite aborts if not. edge_cut and " +
			"halo_total echo the partition plan quality. The serve section " +
			"drives single-point predict load through the consistent-hash " +
			"router of a replicated fleet (cache off = the routed compute " +
			"path; cache on = steady-state hits on the owning replica).",
	}

	// --- Distributed fit across shard counts -------------------------------
	fmt.Printf("cluster: building n=%d system (one anchor per %d nodes)\n", p.n, p.labelEvery)
	sys := clusterSystem(p.n, p.labelEvery, p.degree)
	fmt.Printf("cluster: %d unknowns, %d stored entries\n", sys.M(), sys.W.NNZ())

	var addrs []string
	var workers []*cluster.Worker
	for i := 0; i < p.workers; i++ {
		w, err := cluster.StartWorker("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
	}
	defer func() {
		for _, w := range workers {
			_ = w.Close()
		}
	}()

	var ref []float64
	report.BitwiseIdentical = true
	for _, shards := range []int{1, 2, 4, 8} {
		var f []float64
		var res cluster.Result
		best := math.Inf(1)
		for r := 0; r < p.repeats; r++ {
			start := time.Now()
			var err error
			f, res, err = cluster.SolvePCG(sys, addrs, cluster.PCGOptions{Shards: shards})
			if err != nil {
				log.Fatalf("shards=%d: %v", shards, err)
			}
			if el := time.Since(start).Seconds(); el < best {
				best = el
			}
		}
		if ref == nil {
			ref = f
		} else {
			for i := range ref {
				if f[i] != ref[i] {
					report.BitwiseIdentical = false
					log.Fatalf("shards=%d: solution not bitwise-identical to the 1-shard run at %d", shards, i)
				}
			}
		}
		m := clusterFitMeasurement{
			Shards: shards, Workers: res.Workers, Seconds: best,
			Iterations: res.Iterations, Residual: res.Residual,
			EdgeCut: res.EdgeCut, HaloTotal: res.HaloTotal, Restarts: res.Restarts,
		}
		report.Fit = append(report.Fit, m)
		fmt.Printf("cluster  shards %d  workers %d  %8.3f s  %4d iters  residual %.2e  edgecut %d  halo %d\n",
			shards, res.Workers, best, res.Iterations, res.Residual, res.EdgeCut, res.HaloTotal)
	}
	fmt.Println("cluster: solutions bitwise-identical across shard counts")

	// --- Replicated serve fleet through the router -------------------------
	sp := serveParams{anchors: 4096, d: 16, requests: p.requests, warmup: p.requests / 4}
	model := benchModel(sp)
	queries := benchQueries(sp, 64)
	for _, cache := range []bool{false, true} {
		cacheSize := -1
		if cache {
			cacheSize = 8192
		}
		fleet, err := serve.NewFleet(p.replicas, serve.Config{
			Workers: 1, QueueDepth: 1 << 16, CacheSize: cacheSize,
		})
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < fleet.Len(); i++ {
			if _, err := fleet.Replica(i).Registry().Store("bench", model); err != nil {
				log.Fatal(err)
			}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		hs := &http.Server{Handler: fleet.Handler()}
		go func() { _ = hs.Serve(ln) }()
		base := "http://" + ln.Addr().String()
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 128}}

		for _, clients := range []int{1, 4, 16} {
			m := runServeLoad(base, client, sp, clients, queries)
			m.Cache = cache
			report.Serve = append(report.Serve, m)
			fmt.Printf("fleet  replicas %d  clients %2d  cache %-5v  %8.1f rps  p50 %7.0f µs  p99 %7.0f µs\n",
				p.replicas, clients, cache, m.RPS, m.P50Us, m.P99Us)
		}
		client.CloseIdleConnections()
		_ = hs.Close()
		fleet.Close()
	}
	writeReportAny(out, report)
}
