package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	graphssl "repro"
	"repro/internal/coil"
	"repro/internal/kernel"
	"repro/internal/randx"
	"repro/serve"
)

// The predict workloads: four COIL-like models served over loopback HTTP,
// queried with multi-point requests across models by a closed loop on two
// connections. README.md ("Why the predict load is a closed loop") says why
// there is no open-loop phase.

const (
	coilModels   = 4
	noiseSigma   = 0.02
	poolPerModel = 8192 // four models share the 32 768-render hot pool
	zipfS        = 1.1
	sampleEvery  = 64 // one response in sampleEvery is checked against brute-force NW
	predictSlice = 2 * time.Second
)

// pointsPerRequest are the equally likely request sizes.
var pointsPerRequest = []int{1, 2, 4, 8}

// coilModel is one served model: its fit case and the POST /v1/models body
// that fits it on the server.
type coilModel struct {
	name string
	c    *fitCase
	body []byte
}

// newCoilModels renders the four COIL-like training sets of a seed, each
// with 10% of its images labeled and the median-heuristic bandwidth, and
// encodes their fit requests.
func newCoilModels(seed int64, perClass int) ([]*coilModel, error) {
	out := make([]*coilModel, coilModels)
	for i := range out {
		s := seed*coilModels + int64(i)
		d, err := coil.GenerateSized(s, perClass)
		if err != nil {
			return nil, fmt.Errorf("coil model %d: %w", i, err)
		}
		x, all := d.X(), d.YBinary()
		labeled := randx.New(s).Perm(len(x))[:len(x)/10]
		sort.Ints(labeled)
		y := make([]float64, len(labeled))
		for j, l := range labeled {
			y[j] = all[l]
		}
		bw, err := kernel.MedianHeuristic(x, 200000)
		if err != nil {
			return nil, fmt.Errorf("coil model %d bandwidth: %w", i, err)
		}
		body, err := json.Marshal(struct {
			X         [][]float64 `json:"x"`
			Y         []float64   `json:"y"`
			Labeled   []int       `json:"labeled"`
			Bandwidth float64     `json:"bandwidth"`
			AnchorSet string      `json:"anchor_set"`
		}{x, y, labeled, bw, "all"})
		if err != nil {
			return nil, fmt.Errorf("coil model %d body: %w", i, err)
		}
		out[i] = &coilModel{
			name: fmt.Sprintf("m%d", i+1),
			c:    &fitCase{x: x, y: y, labeled: labeled, kind: graphssl.Gaussian, bw: bw, workers: 1, anchors: serve.AnchorAll},
			body: body,
		}
	}
	return out, nil
}

// predictMix generates the query traffic of one predict workload. A request
// is a pure function of its stream keys, so the same seed gives the same
// requests whichever connection sends them.
type predictMix struct {
	models []*coilModel
	hot    bool
	seed   uint64
}

// request returns the model index and query points of the request with the
// given stream keys. Cold points are fresh noisy renders of training
// images; hot points are drawn Zipf(s=1.1) from the model's share of the
// fixed render pool.
func (mx *predictMix) request(keys ...uint64) (int, [][]float64) {
	rng := newRand(append([]uint64{mx.seed}, keys...)...)
	m := rng.Intn(len(mx.models))
	pts := make([][]float64, pointsPerRequest[rng.Intn(len(pointsPerRequest))])
	var zipf *rand.Zipf
	if mx.hot {
		zipf = rand.NewZipf(rng, zipfS, 1, poolPerModel-1)
	}
	for j := range pts {
		if mx.hot {
			pts[j] = mx.poolPoint(m, zipf.Uint64())
			continue
		}
		x := mx.models[m].c.x
		pts[j] = noisyRender(x[rng.Intn(len(x))], noiseSigma, rng)
	}
	return m, pts
}

// poolPoint is entry rank of model m's share of the hot render pool.
func (mx *predictMix) poolPoint(m int, rank uint64) []float64 {
	rng := newRand(mx.seed, streamPool, rank*coilModels+uint64(m))
	x := mx.models[m].c.x
	return noisyRender(x[rng.Intn(len(x))], noiseSigma, rng)
}

// sample is a served request kept for the output check.
type sample struct {
	model  int
	pts    [][]float64
	scores []float64
	rtt    time.Duration
}

// predictLoad sends predict requests and keeps the tallies of a run's load.
type predictLoad struct {
	r    *run
	mx   *predictMix
	cl   *client
	bufs [2][]byte // per-connection body buffers

	sent, ok atomic.Int64
	rttNs    atomic.Int64

	mu      sync.Mutex
	samples []sample
}

// send sends one request on connection w and records its outcome.
func (ld *predictLoad) send(w, m int, pts [][]float64) {
	n := ld.sent.Add(1)
	sp := ld.r.tr.begin("loadgen.request")
	body := appendPredictBody(ld.bufs[w][:0], ld.mx.models[m].name, pts)
	ld.bufs[w] = body
	rtt := sp.child("serve.rtt")
	b, err := ld.cl.do(http.MethodPost, "/v1/predict", body)
	d := rtt.end()
	var resp predictResponse
	if err == nil {
		if err = json.Unmarshal(b, &resp); err == nil && (len(resp.Scores) != len(pts) || len(resp.Errors) != 0) {
			err = fmt.Errorf("predict: %d scores for %d points, errors %v", len(resp.Scores), len(pts), resp.Errors)
		}
	}
	sp.end()
	ld.r.op(err)
	if err != nil {
		return
	}
	ld.ok.Add(1)
	ld.rttNs.Add(int64(d))
	if n%sampleEvery == 1 {
		ld.mu.Lock()
		ld.samples = append(ld.samples, sample{model: m, pts: pts, scores: resp.Scores, rtt: d})
		ld.mu.Unlock()
	}
}

// predictSetup boots a server, fits the four models one after another, and
// warms it up with warm requests per connection. Fitting one model at a
// time keeps the set-up's memory peak a property of one fit, not of how two
// fits interleave.
func predictSetup(r *run, mx *predictMix, warm int) (*server, error) {
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	cl := newClient(srv.base, 2)
	defer cl.close()
	for _, m := range mx.models {
		_, err := cl.do(http.MethodPost, "/v1/models/"+m.name, m.body)
		r.op(err)
		if err != nil {
			return srv, err
		}
	}
	ld := &predictLoad{r: r, mx: mx, cl: cl}
	closedLoop(0, warm, 2, func(w, seq int) {
		m, pts := mx.request(streamWarm, uint64(w), uint64(seq))
		ld.send(w, m, pts)
	})
	return srv, nil
}

func predictWorkload(r *run, hot bool) error {
	models, err := newCoilModels(r.seed, r.size.coilPerClass)
	if err != nil {
		return err
	}
	mx := &predictMix{models: models, hot: hot, seed: uint64(r.seed)}
	warm := r.size.coldWarm
	if hot {
		// The hot warm-up also fills the prediction cache.
		warm = r.size.hotWarm
	}
	var srv *server
	setupTimes, setupPeaks, teardown, err := repeatSetUp(r, r.size.predictSetups, func() (func(), error) {
		var err error
		srv, err = predictSetup(r, mx, warm)
		return func() {
			if srv != nil {
				srv.close()
			}
		}, err
	})
	if err != nil {
		return err
	}
	defer teardown()
	cl := newClient(srv.base, 2)
	defer cl.close()

	if r.traced() {
		if _, err := traceFit(r, models[0].c); err != nil {
			return err
		}
	}
	var vars0 map[string]float64
	var mem0 runtime.MemStats
	if r.traced() {
		if vars0, err = cl.debugVars(); err != nil {
			return err
		}
		runtime.ReadMemStats(&mem0)
	}

	// The load runs in slices, each from a collected heap in its own
	// peak-memory window; the host probes around a slice scale its
	// throughput and latencies to nominal host speed.
	ld := &predictLoad{r: r, mx: mx, cl: cl}
	slices, slice := phaseSlices(time.Duration(r.seconds*float64(time.Second)), predictSlice)
	var rps, rawRPS, lat, rawLat, peaks []float64
	done := 0
	for s := 0; s < slices; s++ {
		if err := resetPeakRSS(); err != nil {
			return err
		}
		ok0 := ld.ok.Load()
		st := closedLoop(slice, 0, 2, func(w, seq int) {
			m, pts := mx.request(streamLoad, uint64(s), uint64(w), uint64(seq))
			ld.send(w, m, pts)
		})
		peak, err := peakRSSMB()
		if err != nil {
			return err
		}
		peaks = append(peaks, peak)
		speed := r.host.next()
		raw := float64(ld.ok.Load()-ok0) / st.elapsed.Seconds()
		rawRPS = append(rawRPS, raw)
		rps = append(rps, raw/speed)
		for _, d := range st.latency {
			rawLat = append(rawLat, ms(d))
			lat = append(lat, ms(d)*speed)
		}
		done += st.done
	}
	p50, p95 := median(lat), quantile(lat, 0.95)
	rss := median(peaks)
	r.set("setup_s", median(setupTimes))
	r.set("throughput_per_s", median(append([]float64(nil), rps...)))
	r.set("latency_p50_ms", p50)
	r.set("latency_p95_ms", p95)
	r.set("peak_rss_mb", max(median(setupPeaks), rss))
	r.logf("load (closed loop, 2 connections): %d requests in %d slices of %.2f s; requests/s per slice normalized %.1f, raw %.1f",
		done, slices, slice.Seconds(), rps, rawRPS)
	r.logf("latency: normalized p50 %.3f ms p95 %.3f ms p99 %.3f ms (n=%d, %d beyond p95); raw p50 %.3f ms p95 %.3f ms",
		p50, p95, quantile(lat, 0.99), len(lat), len(lat)/20, median(rawLat), quantile(rawLat, 0.95))
	r.logf("peak RSS: set-ups %.1f MB (median of %d), load slices %.1f MB (median of %d)", median(setupPeaks), len(setupPeaks), rss, len(peaks))

	if r.traced() {
		vars1, err := cl.debugVars()
		if err != nil {
			return err
		}
		sent := ld.sent.Load()
		setGoStats(r, &mem0, int(sent))
		delta := func(k string) float64 { return vars1[k] - vars0[k] }
		hits, misses := delta("graphssl.serve.cache_hits"), delta("graphssl.serve.cache_misses")
		r.set("serve.cache_hit_ratio", hits/max(hits+misses, 1))
		if batches := delta("graphssl.serve.batches_total"); batches > 0 {
			r.set("serve.batch_occupancy", delta("graphssl.serve.batched_points_total")/batches)
		}
		r.set("serve.shed_ratio", delta("graphssl.serve.rejected_total")/float64(sent))
		r.set("serve.rtt_us", float64(ld.rttNs.Load())/1e3/float64(max(ld.ok.Load(), 1)))
	}
	return checkPredict(r, mx, ld.samples)
}

// checkPredict refits every model in process and compares each sampled
// response with brute-force Nadaraya–Watson over the model's anchors (every
// training point with its fitted score). The traced run also replays the
// samples in process for the HTTP overhead and probes the model layer.
func checkPredict(r *run, mx *predictMix, samples []sample) error {
	refs := make([]*graphssl.Result, len(mx.models))
	inproc := make([]*serve.Model, len(mx.models))
	for i, cm := range mx.models {
		// Fits are bitwise-identical across worker counts, so the reference
		// fit may use every core.
		ref := *cm.c
		ref.workers = 0
		res, m, err := ref.servable()
		r.op(err)
		if err != nil {
			return err
		}
		refs[i], inproc[i] = res, m
	}
	r.check(len(samples) > 0, "no sampled responses to check")
	var overhead time.Duration
	for _, s := range samples {
		c := mx.models[s.model].c
		for j, q := range s.pts {
			err := checkNW(s.scores[j], q, c.x, refs[s.model].Scores, c.kind, c.bw)
			r.check(err == nil, "model %s: %v", mx.models[s.model].name, err)
		}
		if r.traced() {
			t0 := time.Now()
			_, _ = inproc[s.model].PredictBatch(s.pts)
			overhead += s.rtt - time.Since(t0)
		}
	}
	r.logf("checked %d sampled responses against brute-force Nadaraya-Watson", len(samples))
	if !r.traced() {
		return nil
	}
	r.set("serve.overhead_us", us(overhead)/float64(max(len(samples), 1)))
	reqs := make([]probeRequest, 256)
	for i := range reqs {
		m, pts := mx.request(streamProbe, uint64(i))
		reqs[i] = probeRequest{inproc[m], pts}
	}
	probePredict(r, reqs, mx.models[0].c.x)
	return nil
}
