package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	graphssl "repro"
	"repro/internal/randx"
	"repro/serve"
	"repro/stream"
)

// The ingest workload: a streaming model takes labeled points open loop on
// one connection while a second connection predicts near recent inserts
// and polls the served anchor count. Its operation is one ingested point;
// its latency is that point's staleness, from send to the first poll whose
// served anchor count includes it.

const (
	ingestRate   = 25.0 // requests/s on connection 1
	ingestPoints = 8    // labeled points per ingest request
	readRate     = 200.0
	// drainLimit is the server's default refresh batch: a cycle keeps
	// taking whole queued requests while it holds fewer points.
	drainLimit   = 256
	drainTimeout = 10 * time.Second
	ingestSlice  = 2500 * time.Millisecond
)

// ingestFixture is the streaming base set: an n-point jittered grid over
// the unit square with every 10th point labeled, and the Epanechnikov
// bandwidth of about three grid spacings that keeps the radius graph
// connected.
func ingestFixture(n int, seed int64) *fitCase {
	rng := randx.New(seed)
	side := int(math.Ceil(math.Sqrt(float64(n))))
	jitter := 0.2 / float64(side)
	c := &fitCase{kind: graphssl.Epanechnikov, bw: 3.2 / float64(side), workers: 1, anchors: serve.AnchorLabeled}
	c.x = make([][]float64, n)
	for i := range c.x {
		px := (float64(i%side) + 0.5) / float64(side)
		py := (float64(i/side) + 0.5) / float64(side)
		c.x[i] = []float64{px + jitter*(2*rng.Float64()-1), py + jitter*(2*rng.Float64()-1)}
	}
	for i := 0; i < n; i += 10 {
		c.labeled = append(c.labeled, i)
		c.y = append(c.y, ingestResponse(c.x[i]))
	}
	return c
}

func ingestResponse(p []float64) float64 { return math.Sin(4*p[0]) * math.Cos(3*p[1]) }

// near returns a point within half a bandwidth of p, so a prediction there
// always has p itself in the kernel's support.
func near(p []float64, h float64, rng interface{ Float64() float64 }) []float64 {
	r := h / 2 * math.Sqrt(rng.Float64())
	a := 2 * math.Pi * rng.Float64()
	return []float64{p[0] + r*math.Cos(a), p[1] + r*math.Sin(a)}
}

// poll is one observation of the served model.
type poll struct {
	at      time.Time
	version int64
	anchors int
}

// ingestRead is a sampled prediction kept for the output check.
type ingestRead struct {
	q       []float64
	version int64
	score   float64
	rtt     time.Duration
}

// ingestLoad is the state of one ingest phase.
type ingestLoad struct {
	r      *run
	c      *fitCase
	ins    [][]float64 // the labeled points to ingest, in send order
	bodies [][]byte
	base   int // labeled anchors before any ingest

	writer, reader *client

	sendAt   []time.Time // per ingest request, written by connection 1 only
	accepted []bool
	polls    []poll // written by connection 2 only
	anchors  atomic.Int64
	reads    []ingestRead
	readRTT  []time.Duration
	predicts int
}

func (ld *ingestLoad) ingest(i int) {
	sp := ld.r.tr.begin("loadgen.ingest")
	rtt := sp.child("serve.rtt")
	ld.sendAt[i] = time.Now()
	_, err := ld.writer.do(http.MethodPost, "/v1/ingest", ld.bodies[i])
	rtt.end()
	sp.end()
	ld.r.op(err)
	ld.accepted[i] = err == nil
}

func (ld *ingestLoad) poll() {
	sp := ld.r.tr.begin("loadgen.poll")
	rtt := sp.child("serve.rtt")
	b, err := ld.reader.do(http.MethodGet, "/v1/models/ingest", nil)
	at := time.Now()
	rtt.end()
	var e modelEntry
	if err == nil {
		err = json.Unmarshal(b, &e)
	}
	sp.end()
	ld.r.op(err)
	if err == nil {
		ld.polls = append(ld.polls, poll{at: at, version: e.Version, anchors: e.Info.Anchors})
		ld.anchors.Store(int64(e.Info.Anchors))
	}
}

// query picks a point near one of the most recently published inserts (a
// base labeled point before the first publish).
func (ld *ingestLoad) query(i int) []float64 {
	rng := newRand(uint64(ld.r.seed), streamIngest, uint64(i))
	if pub := int(ld.anchors.Load()) - ld.base; pub > 0 {
		return near(ld.ins[pub-1-rng.Intn(min(pub, 100))], ld.c.bw, rng)
	}
	return near(ld.c.x[ld.c.labeled[rng.Intn(len(ld.c.labeled))]], ld.c.bw, rng)
}

func (ld *ingestLoad) predict(q []float64) {
	sp := ld.r.tr.begin("loadgen.request")
	body := appendPredictBody(nil, "ingest", [][]float64{q})
	rtt := sp.child("serve.rtt")
	b, err := ld.reader.do(http.MethodPost, "/v1/predict", body)
	d := rtt.end()
	var resp predictResponse
	if err == nil {
		if err = json.Unmarshal(b, &resp); err == nil && (len(resp.Scores) != 1 || len(resp.Errors) != 0) {
			err = fmt.Errorf("predict: %d scores, errors %v", len(resp.Scores), resp.Errors)
		}
	}
	sp.end()
	ld.r.op(err)
	if err != nil {
		return
	}
	ld.readRTT = append(ld.readRTT, d)
	ld.predicts++
	if ld.predicts%sampleEvery == 1 {
		ld.reads = append(ld.reads, ingestRead{q: q, version: resp.Version, score: resp.Scores[0], rtt: d})
	}
}

// ingestSetup boots a server, fits the streaming model and warms up the
// read path.
func ingestSetup(r *run, ld *ingestLoad, body []byte) (*server, error) {
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	ld.reader = newClient(srv.base, 1)
	_, err = ld.reader.do(http.MethodPost, "/v1/models/ingest", body)
	r.op(err)
	if err != nil {
		return srv, err
	}
	for i := 0; i < 50; i++ {
		ld.poll()
		ld.predict(ld.query(-1 - i))
	}
	return srv, nil
}

func ingestWorkload(r *run) error {
	c := ingestFixture(r.size.ingestN, r.seed)
	slices, slice := phaseSlices(time.Duration(r.seconds*float64(time.Second)), ingestSlice)
	perSlice := int(slice.Seconds() * ingestRate)
	nReq := slices * perSlice
	rng := randx.New(r.seed ^ 0x1a9e)
	ld := &ingestLoad{r: r, c: c, base: len(c.labeled), sendAt: make([]time.Time, nReq), accepted: make([]bool, nReq)}
	for i := 0; i < nReq; i++ {
		pts := make([][]float64, ingestPoints)
		ys := make([]float64, ingestPoints)
		for j := range pts {
			pts[j] = []float64{rng.Float64(), rng.Float64()}
			ys[j] = ingestResponse(pts[j])
		}
		ld.ins = append(ld.ins, pts...)
		body := appendPredictBody(nil, "ingest", pts)
		body = append(body[:len(body)-1], `,"y":`...)
		body = append(appendVector(body, ys), '}')
		ld.bodies = append(ld.bodies, body)
	}
	fitBody, err := json.Marshal(struct {
		X         [][]float64 `json:"x"`
		Y         []float64   `json:"y"`
		Labeled   []int       `json:"labeled"`
		Kernel    string      `json:"kernel"`
		Bandwidth float64     `json:"bandwidth"`
		Stream    bool        `json:"stream"`
	}{c.x, c.y, c.labeled, "epanechnikov", c.bw, true})
	if err != nil {
		return fmt.Errorf("ingest fit body: %w", err)
	}

	var srv *server
	setupTimes, setupPeaks, teardown, err := repeatSetUp(r, r.size.setups, func() (func(), error) {
		ld.polls, ld.reads, ld.readRTT, ld.predicts = nil, nil, nil, 0
		ld.anchors.Store(0)
		var err error
		srv, err = ingestSetup(r, ld, fitBody)
		return func() {
			if srv != nil {
				ld.reader.close()
				srv.close()
			}
		}, err
	})
	if err != nil {
		return err
	}
	defer teardown()
	ld.writer = newClient(srv.base, 1)
	defer ld.writer.close()
	ld.polls, ld.reads, ld.readRTT, ld.predicts = nil, nil, nil, 0

	if r.traced() {
		if _, err := traceFit(r, c); err != nil {
			return err
		}
	}
	var vars0 map[string]float64
	var mem0 runtime.MemStats
	if r.traced() {
		if vars0, err = ld.reader.debugVars(); err != nil {
			return err
		}
		runtime.ReadMemStats(&mem0)
	}

	// The load runs in slices. Each starts from a collected heap in its own
	// peak-memory window and ends once every point it got accepted is
	// served, with a host probe whose speed scales the slice's staleness to
	// nominal host speed.
	speed := make([]float64, nReq)
	var peaks []float64
	var writes, reads loopStats
	accepted := 0
	for s := 0; s < slices; s++ {
		lo := s * perSlice
		if err := resetPeakRSS(); err != nil {
			return err
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := openLoop(slice, ingestRate, 1, func(int) any { return nil }, func(_, i int, _ any) { ld.ingest(lo + i) })
			writes.done += w.done
			writes.late = append(writes.late, w.late...)
		}()
		rd := openLoop(slice, readRate, 1, func(i int) any {
			if i%2 == 1 {
				return ld.query(lo*int(readRate/ingestRate) + i)
			}
			return nil
		}, func(_, _ int, p any) {
			if q, ok := p.([]float64); ok {
				ld.predict(q)
			} else {
				ld.poll()
			}
		})
		wg.Wait()
		reads.done += rd.done
		reads.late = append(reads.late, rd.late...)
		for i := lo; i < lo+perSlice; i++ {
			if ld.accepted[i] {
				accepted += ingestPoints
			}
		}
		// Keep polling until every accepted point is served.
		for deadline := time.Now().Add(drainTimeout); int(ld.anchors.Load()) < ld.base+accepted && time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
			ld.poll()
		}
		peak, err := peakRSSMB()
		if err != nil {
			return err
		}
		peaks = append(peaks, peak)
		sp := r.host.next()
		for i := lo; i < lo+perSlice; i++ {
			speed[i] = sp
		}
	}

	stale := ld.staleness()
	if len(stale) == 0 {
		return fmt.Errorf("no ingested point was ever seen served")
	}
	r.check(len(stale)*ingestPoints == accepted, "%d of %d accepted points were never seen served", accepted-len(stale)*ingestPoints, accepted)
	final := int(ld.anchors.Load())
	r.check(final == ld.base+accepted, "final served anchors %d, want %d base + %d accepted", final, ld.base, accepted)
	// Every point of a request shares its staleness. A slice's published
	// rate counts its points over the time from its first send to the poll
	// that saw its last point served; it is a rate against the fixed offered
	// schedule, so it is not scaled.
	var staleMs, rawMs []float64
	published := make([]float64, slices)
	first := make([]time.Time, slices)
	last := make([]time.Time, slices)
	for _, st := range stale {
		s := st.req / perSlice
		for k := 0; k < ingestPoints; k++ {
			rawMs = append(rawMs, ms(st.d))
			staleMs = append(staleMs, ms(st.d)*speed[st.req])
		}
		published[s] += ingestPoints
		if first[s].IsZero() {
			first[s] = ld.sendAt[st.req]
		}
		last[s] = st.seen
	}
	for s := range published {
		if published[s] > 0 {
			published[s] /= last[s].Sub(first[s]).Seconds()
		}
	}
	p50, p95 := median(staleMs), quantile(staleMs, 0.95)
	rss := median(peaks)
	r.set("setup_s", median(setupTimes))
	r.set("throughput_per_s", median(append([]float64(nil), published...)))
	r.set("latency_p50_ms", p50)
	r.set("latency_p95_ms", p95)
	r.set("peak_rss_mb", max(median(setupPeaks), rss))
	readMs := durationsMs(ld.readRTT)
	lateMs := append(durationsMs(writes.late), durationsMs(reads.late)...)
	late99 := quantile(lateMs, 0.99)
	r.logf("ingest: %d points offered at %.0f points/s in %d slices of %.2f s, %d accepted, published points/s per slice %.1f; normalized staleness p50 %.3f ms p95 %.3f ms p99 %.3f ms (n=%d points in %d requests); raw p50 %.3f ms p95 %.3f ms",
		nReq*ingestPoints, ingestRate*ingestPoints, slices, slice.Seconds(), accepted, published, p50, p95, quantile(staleMs, 0.99), len(staleMs), len(stale), median(rawMs), quantile(rawMs, 0.95))
	r.logf("reads: %d predicts, round trip p50 %.3f ms p99 %.3f ms (n=%d); %d polls; generator late p99 %.3f ms",
		ld.predicts, median(readMs), quantile(readMs, 0.99), len(readMs), len(ld.polls), late99)
	r.logf("peak RSS: set-ups %.1f MB (median of %d), slices %.1f MB (median of %d)", median(setupPeaks), len(setupPeaks), rss, len(peaks))

	if r.traced() {
		vars1, err := ld.reader.debugVars()
		if err != nil {
			return err
		}
		setGoStats(r, &mem0, accepted)
		delta := func(k string) float64 { return vars1[k] - vars0[k] }
		hits, misses := delta("graphssl.serve.cache_hits"), delta("graphssl.serve.cache_misses")
		r.set("serve.cache_hit_ratio", hits/max(hits+misses, 1))
		if batches := delta("graphssl.serve.batches_total"); batches > 0 {
			r.set("serve.batch_occupancy", delta("graphssl.serve.batched_points_total")/batches)
		}
		r.set("serve.shed_ratio", delta("graphssl.serve.rejected_total")/float64(writes.done+reads.done))
		if rolls := delta("graphssl.serve.ingest.delta_rollforwards") + delta("graphssl.serve.ingest.full_rollforwards"); rolls > 0 {
			r.set("serve.ingest_batch_pts", delta("graphssl.serve.ingest.points_total")/rolls)
		}
		var rtt time.Duration
		for _, d := range ld.readRTT {
			rtt += d
		}
		r.set("serve.rtt_us", us(rtt)/float64(max(len(ld.readRTT), 1)))
		r.set("loadgen.late_p99_ms", late99)
	}
	return ld.check()
}

// requestStaleness is how long an accepted ingest request's points took to
// be served: from the request's send to seen, the first poll serving at
// least as many anchors as the points accepted up to and including it.
type requestStaleness struct {
	req  int
	d    time.Duration
	seen time.Time
}

// staleness returns the staleness of every accepted request whose points a
// poll saw served, in send order. Published anchors only grow, and the
// server folds requests in arrival order, so one pass over the polls
// serves every request.
func (ld *ingestLoad) staleness() []requestStaleness {
	var out []requestStaleness
	need, j := ld.base, 0
	for i, ok := range ld.accepted {
		if !ok {
			continue
		}
		need += ingestPoints
		for j < len(ld.polls) && ld.polls[j].anchors < need {
			j++
		}
		if j == len(ld.polls) {
			break
		}
		out = append(out, requestStaleness{req: i, d: ld.polls[j].at.Sub(ld.sendAt[i]), seen: ld.polls[j].at})
	}
	return out
}

// check compares the sampled predictions with brute-force Nadaraya–Watson
// over the anchors the served version held: the base labeled points
// followed by the first inserted points, as many as the version's polled
// anchor count says. Samples of versions no poll observed are skipped.
func (ld *ingestLoad) check() error {
	anchorsOf := map[int64]int{}
	for _, p := range ld.polls {
		anchorsOf[p.version] = p.anchors
	}
	ax := make([][]float64, 0, ld.base+len(ld.ins))
	vals := make([]float64, 0, ld.base+len(ld.ins))
	for i, l := range ld.c.labeled {
		ax = append(ax, ld.c.x[l])
		vals = append(vals, ld.c.y[i])
	}
	for _, p := range ld.ins {
		ax = append(ax, p)
		vals = append(vals, ingestResponse(p))
	}
	checked := 0
	for _, s := range ld.reads {
		n, ok := anchorsOf[s.version]
		if !ok {
			continue
		}
		checked++
		err := checkNW(s.score, s.q, ax[:n], vals[:n], ld.c.kind, ld.c.bw)
		ld.r.check(err == nil, "ingest version %d: %v", s.version, err)
	}
	ld.r.check(checked > 0, "no sampled prediction had an observed version")
	ld.r.logf("checked %d of %d sampled predictions against brute-force Nadaraya-Watson", checked, len(ld.reads))
	if !ld.r.traced() {
		return nil
	}
	return ld.replay()
}

// replay feeds the phase's arrival schedule through a library
// stream.Ingestor under the server's drain rule, on a virtual clock that
// advances by each cycle's measured work, and times the stream and serve
// layers of every refresh cycle.
func (ld *ingestLoad) replay() error {
	r, c := ld.r, ld.c
	root := r.tr.begin("bench.stream_replay")
	defer root.end()
	ing, err := stream.New(c.x, c.y, c.labeled, stream.Config{Kernel: c.kind, Bandwidth: c.bw, Workers: 1})
	r.op(err)
	if err != nil {
		return fmt.Errorf("replay base fit: %w", err)
	}
	snap, err := ing.Snapshot()
	if err != nil {
		return fmt.Errorf("replay snapshot: %w", err)
	}
	model, err := serve.NewModel(snap, serve.WithWorkers(1))
	if err != nil {
		return fmt.Errorf("replay model: %w", err)
	}
	reg := &serve.Registry{}
	if _, err := reg.Store("replay", model); err != nil {
		return fmt.Errorf("replay store: %w", err)
	}

	var arrivals []time.Duration
	var reqs []int
	for i, ok := range ld.accepted {
		if ok {
			arrivals = append(arrivals, ld.sendAt[i].Sub(ld.sendAt[0]))
			reqs = append(reqs, i)
		}
	}
	var insert, refresh, apply, store time.Duration
	var inserts, cycles, applies, iters int
	kinds := map[string]int{}
	var now time.Duration
	for next := 0; next < len(arrivals); {
		now = max(now, arrivals[next])
		cycle := root.child("stream.cycle")
		t0 := time.Now()
		for first, pts := next, 0; next < len(arrivals) && arrivals[next] <= now && (next == first || pts < drainLimit); next++ {
			for _, p := range ld.ins[reqs[next]*ingestPoints : (reqs[next]+1)*ingestPoints] {
				sp := cycle.child("stream.insert")
				_, err := ing.InsertLabeled(p, ingestResponse(p))
				insert += sp.end()
				inserts++
				r.op(err)
			}
			pts += ingestPoints
		}
		sp := cycle.child("stream.refresh")
		out, err := ing.Refresh()
		refresh += sp.end()
		cycles++
		r.op(err)
		if err != nil {
			cycle.end()
			return fmt.Errorf("replay refresh: %w", err)
		}
		iters += out.Iterations
		kinds[out.Kind]++
		if d, ok := ing.TakeDelta(); ok {
			sp := cycle.child("serve.apply_delta")
			model, err = model.ApplyDelta(d)
			apply += sp.end()
			applies++
		} else {
			if snap, err = ing.Snapshot(); err == nil {
				model, err = serve.NewModel(snap, serve.WithWorkers(1))
				ing.MarkPublished()
			}
		}
		r.op(err)
		if err != nil {
			cycle.end()
			return fmt.Errorf("replay publish: %w", err)
		}
		sp = cycle.child("serve.registry_store")
		_, err = reg.Store("replay", model)
		store += sp.end()
		r.op(err)
		cycle.end()
		now += time.Since(t0)
	}
	r.check(model.NumAnchors() == ld.base+inserts, "replay serves %d anchors, want %d", model.NumAnchors(), ld.base+inserts)
	r.set("stream.insert_us", us(insert)/float64(max(inserts, 1)))
	r.set("stream.refresh_ms", ms(refresh)/float64(max(cycles, 1)))
	r.set("stream.refresh_iters", float64(iters)/float64(max(cycles, 1)))
	for _, k := range []string{"label-values", "woodbury", "warm-pcg", "full-refit"} {
		r.set("stream.refresh_"+k, float64(kinds[k]))
	}
	r.set("serve.apply_delta_ms", ms(apply)/float64(max(applies, 1)))
	r.set("serve.registry_store_us", us(store)/float64(max(cycles, 1)))
	r.logf("replay: %d points in %d refresh cycles (%v), %.1f points/cycle", inserts, cycles, kinds, float64(inserts)/float64(max(cycles, 1)))

	var overhead time.Duration
	for _, s := range ld.reads {
		t0 := time.Now()
		_, _ = model.PredictBatch([][]float64{s.q})
		overhead += s.rtt - time.Since(t0)
	}
	r.set("serve.overhead_us", us(overhead)/float64(max(len(ld.reads), 1)))
	reqsProbe := make([]probeRequest, 1024)
	for i := range reqsProbe {
		reqsProbe[i] = probeRequest{model, [][]float64{ld.query(1<<30 + i)}}
	}
	base := make([][]float64, len(c.labeled))
	for i, l := range c.labeled {
		base[i] = c.x[l]
	}
	probePredict(r, reqsProbe, base)
	return nil
}
