package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	graphssl "repro"
	"repro/stream"
)

// streamData builds a well-connected 2-d point set for streaming tests:
// a jittered grid with the first nl points labeled.
func streamData(seed int64, n, nl int) (x [][]float64, y []float64, labeled []int) {
	rng := rand.New(rand.NewSource(seed))
	side := int(math.Ceil(math.Sqrt(float64(n))))
	for i := 0; i < n; i++ {
		px := float64(i%side)/float64(side) + 0.02*rng.Float64()
		py := float64(i/side)/float64(side) + 0.02*rng.Float64()
		x = append(x, []float64{px, py})
	}
	for i := 0; i < nl; i++ {
		labeled = append(labeled, i)
		y = append(y, math.Sin(float64(i)))
	}
	return x, y, labeled
}

// TestModelApplyDeltaBitwise checks the roll-forward identity the ingest
// worker relies on: Model.ApplyDelta(d) must predict bitwise-identically
// to NewModel(snap.ApplyDelta(d)) — appending delta anchors in place is
// indistinguishable from rebuilding the model on the extended snapshot.
func TestModelApplyDeltaBitwise(t *testing.T) {
	x, y, labeled := testData(7, 90, 3, 30)
	res, err := graphssl.Fit(x, y, labeled, graphssl.WithBandwidth(1.2))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := res.Snapshot(x, y)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(snap)
	if err != nil {
		t.Fatal(err)
	}

	d := &graphssl.SnapshotDelta{
		X: [][]float64{{0.1, 0.2, 0.3}, {-0.4, 0.5, -0.6}, {0.7, -0.8, 0.9}},
		Y: []float64{2.5, -1.5, 0.5},
	}
	rolled, err := m.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := snap.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := NewModel(snap2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rolled.Info(), rebuilt.Info(); got != want {
		t.Fatalf("info mismatch: rolled %+v rebuilt %+v", got, want)
	}

	rng := rand.New(rand.NewSource(99))
	qs := make([][]float64, 200)
	for i := range qs {
		qs[i] = []float64{3 * rng.NormFloat64(), 3 * rng.NormFloat64(), 3 * rng.NormFloat64()}
	}
	errAt := func(errs []error, i int) error {
		if errs == nil {
			return nil
		}
		return errs[i]
	}
	a, aerrs := rolled.PredictBatch(qs)
	b, berrs := rebuilt.PredictBatch(qs)
	for i := range qs {
		ae, be := errAt(aerrs, i), errAt(berrs, i)
		if (ae == nil) != (be == nil) {
			t.Fatalf("query %d: error mismatch %v vs %v", i, ae, be)
		}
		if ae == nil && math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("query %d: rolled %v != rebuilt %v", i, a[i], b[i])
		}
	}

	// The original model is immutable: its predictions are unchanged.
	before, _ := m.PredictBatch(qs[:10])
	m2, err := NewModel(snap)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := m2.PredictBatch(qs[:10])
	for i := range before {
		if math.Float64bits(before[i]) != math.Float64bits(after[i]) {
			t.Fatalf("base model mutated at query %d", i)
		}
	}

	// Validation: empty delta is the same model; malformed deltas reject.
	if same, err := m.ApplyDelta(nil); err != nil || same != m {
		t.Fatalf("nil delta: %v %v", same, err)
	}
	bad := []*graphssl.SnapshotDelta{
		{X: [][]float64{{1, 2}}, Y: []float64{1}},               // dim mismatch
		{X: [][]float64{{1, 2, math.NaN()}}, Y: []float64{1}},   // non-finite point
		{X: [][]float64{{1, 2, 3}}, Y: []float64{math.Inf(1)}},  // non-finite response
		{X: [][]float64{{1, 2, 3}, {4, 5, 6}}, Y: []float64{1}}, // length mismatch
	}
	for i, d := range bad {
		if _, err := m.ApplyDelta(d); err == nil {
			t.Fatalf("bad delta %d accepted", i)
		}
	}
}

// streamFit publishes a streaming model over HTTP.
func streamFit(t *testing.T, base, name string, x [][]float64, y []float64, labeled []int, h float64) fitResponse {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/models/"+name, fitRequest{
		X: x, Y: y, Labeled: labeled,
		Kernel: "epanechnikov", Bandwidth: h, Stream: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream fit: %d %s", resp.StatusCode, body)
	}
	var fr fitResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	return fr
}

// waitForVersion polls the model endpoint until its version reaches v.
func waitForVersion(t *testing.T, base, name string, v int64) modelEntry {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body := getJSON(t, base+"/v1/models/"+name)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("get: %d %s", resp.StatusCode, body)
		}
		var e modelEntry
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatal(err)
		}
		if e.Version >= v {
			return e
		}
		if time.Now().After(deadline) {
			t.Fatalf("model %q stuck at version %d, want %d", name, e.Version, v)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestIngestE2E drives the streaming loop over HTTP: fit with
// "stream": true, ingest labeled points in two batches, and check the
// served model predicts bitwise like the model an in-process
// stream.Ingestor's snapshot gives for the same request, first as
// fitted, then with the ingested labels appended in arrival order —
// including through the version-keyed prediction cache.
func TestIngestE2E(t *testing.T) {
	srv, ts := testServer(t, Config{Workers: 1})
	x, y, labeled := streamData(11, 64, 16)
	const h = 0.35

	fr := streamFit(t, ts.URL, "live", x, y, labeled, h)
	if fr.Version != 1 || fr.Info.Anchors != 16 {
		t.Fatalf("stream fit response: %+v", fr)
	}
	twin, err := stream.New(x, y, labeled, stream.Config{
		Kernel: graphssl.Epanechnikov, Bandwidth: h, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := twin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewModel(snap, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if fr.Info != base.Info() {
		t.Fatalf("stream fit info %+v, want %+v", fr.Info, base.Info())
	}

	rng := rand.New(rand.NewSource(3))
	qs := make([][]float64, 64)
	for i := range qs {
		qs[i] = []float64{rng.Float64(), rng.Float64()}
	}
	// servedMatches predicts qs over HTTP and checks the response's
	// version and its bits against want.
	servedMatches := func(version int64, want *Model) {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "live", Points: qs})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict: %d %s", resp.StatusCode, body)
		}
		var pr predictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		if pr.Version != version {
			t.Fatalf("predict version = %d, want %d", pr.Version, version)
		}
		ws, errs := want.PredictBatch(qs)
		for i := range qs {
			var werr, gerr string
			if errs != nil && errs[i] != nil {
				werr = errs[i].Error()
			}
			if pr.Errors != nil {
				gerr = pr.Errors[i]
			}
			if gerr != werr || (werr == "" && math.Float64bits(pr.Scores[i]) != math.Float64bits(ws[i])) {
				t.Fatalf("query %d at version %d: served %v (%q), want %v (%q)", i, version, pr.Scores[i], gerr, ws[i], werr)
			}
		}
	}
	servedMatches(1, base)

	// Two labeled batches. The test holds the registry's writer lock, so
	// the worker, having taken the first request, waits to publish it
	// while the second stays queued through a predict: a queued job's
	// points are read after its handler returns, so they must not share
	// decode storage with the predict that follows.
	pts := [][]float64{{0.30, 0.30}, {0.62, 0.18}, {0.15, 0.77}}
	ys := []float64{3, -3, 1.5}
	st := srv.ingestStateFor("live")
	srv.registry.mu.Lock()
	unlock := sync.OnceFunc(srv.registry.mu.Unlock)
	defer unlock()
	for _, part := range [][2]int{{0, 2}, {2, 3}} {
		resp, body := postJSON(t, ts.URL+"/v1/ingest", ingestRequest{Model: "live", Points: pts[part[0]:part[1]], Y: ys[part[0]:part[1]]})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest: %d %s", resp.StatusCode, body)
		}
		var ir ingestResponse
		if err := json.Unmarshal(body, &ir); err != nil {
			t.Fatal(err)
		}
		if ir.Accepted != part[1]-part[0] {
			t.Fatalf("ingest response: %+v", ir)
		}
		// Wait for the worker to take the first request off the queue.
		for deadline := time.Now().Add(5 * time.Second); part[0] == 0 && len(st.ch) > 0; {
			if time.Now().After(deadline) {
				t.Fatal("worker never took the first request")
			}
			time.Sleep(time.Millisecond)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "live", Points: [][]float64{{0.9, 0.9}, {0.8, 0.1}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict between ingests: %d %s", resp.StatusCode, body)
	}
	unlock()

	e := waitForVersion(t, ts.URL, "live", 3)
	if e.Version != 3 || e.Info.Anchors != 19 {
		t.Fatalf("rolled model at version %d with %d anchors, want version 3 with 19", e.Version, e.Info.Anchors)
	}
	want, err := base.ApplyDelta(&graphssl.SnapshotDelta{X: pts, Y: ys})
	if err != nil {
		t.Fatal(err)
	}
	if e.Info != want.Info() {
		t.Fatalf("rolled model info %+v, want %+v", e.Info, want.Info())
	}
	// The queries cached at version 1 must now answer from version 3 with
	// the new bits: the version-keyed cache can never serve a stale score.
	servedMatches(3, want)

	// Delete tears the ingest state down; further ingests 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/live", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	resp, _ = postJSON(t, ts.URL+"/v1/ingest", ingestRequest{Model: "live", Points: pts[:1], Y: ys[:1]})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ingest after delete: %d", resp.StatusCode)
	}
	if srv.ingestStateFor("live") != nil {
		t.Fatal("ingest state survived delete")
	}
}

// TestStreamFitPrunesOnKDTree fits the ingest benchmark's model shape over
// HTTP — a 2-d jittered grid, every 10th point labeled, Epanechnikov with
// h = 3.2/side — and checks that its labeled-anchor predictor answers
// through the KD-tree: the fit response's "pruning" reads "kdtree".
func TestStreamFitPrunesOnKDTree(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	const n, side = 900, 30
	x, _, _ := streamData(5, n, 0)
	var y []float64
	var labeled []int
	for i := 0; i < n; i += 10 {
		labeled = append(labeled, i)
		y = append(y, math.Sin(float64(i)))
	}
	resp, body := postJSON(t, ts.URL+"/v1/models/ingest", fitRequest{
		X: x, Y: y, Labeled: labeled,
		Kernel: "epanechnikov", Bandwidth: 3.2 / side, Stream: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream fit: %d %s", resp.StatusCode, body)
	}
	var fr struct {
		Info map[string]any `json:"info"`
	}
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Info["pruning"] != "kdtree" || fr.Info["anchors"] != float64(len(labeled)) {
		t.Fatalf("stream fit info: %v", fr.Info)
	}
}

// TestIngestValidation covers the request-shape and configuration errors
// of the streaming surface. A request the served model could not append
// is refused at admission and never reaches the queue.
func TestIngestValidation(t *testing.T) {
	srv, ts := testServer(t, Config{Workers: 1, IngestQueue: 2})
	x, y, labeled := streamData(13, 48, 12)
	const h = 0.35

	// Streaming fit constraints.
	for name, req := range map[string]fitRequest{
		"gaussian kernel":          {X: x, Y: y, Labeled: labeled, Bandwidth: h, Stream: true},
		"explicit gaussian kernel": {X: x, Y: y, Labeled: labeled, Kernel: "gaussian", Bandwidth: h, Stream: true},
		"no bandwidth":             {X: x, Y: y, Labeled: labeled, Kernel: "epanechnikov", Stream: true},
		"knn":                      {X: x, Y: y, Labeled: labeled, Kernel: "epanechnikov", Bandwidth: h, KNN: 4, Stream: true},
		"top_m":                    {X: x, Y: y, Labeled: labeled, Kernel: "epanechnikov", Bandwidth: h, TopM: 4, Stream: true},
		"anchor all":               {X: x, Y: y, Labeled: labeled, Kernel: "epanechnikov", Bandwidth: h, AnchorSet: "all", Stream: true},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/models/bad", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d %s", name, resp.StatusCode, body)
		}
	}
	lam := 0.5
	resp, _ := postJSON(t, ts.URL+"/v1/models/bad", fitRequest{
		X: x, Y: y, Labeled: labeled, Kernel: "epanechnikov", Bandwidth: h, Lambda: &lam, Stream: true,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("lambda: %d", resp.StatusCode)
	}

	streamFit(t, ts.URL, "live", x, y, labeled, h)
	fitOverHTTP(t, ts.URL, "plain", x, y, labeled, 1.0)

	// Ingest request shapes.
	for name, req := range map[string]ingestRequest{
		"no points":  {Model: "live"},
		"y mismatch": {Model: "live", Points: [][]float64{{0.1, 0.1}}, Y: []float64{1, 2}},
		"non-stream": {Model: "plain", Points: [][]float64{{0.1, 0.1}}, Y: []float64{1}},
		"wrong dim":  {Model: "live", Points: [][]float64{{0.1, 0.1}, {0.2, 0.2, 0.2}}, Y: []float64{1, 2}},
		"no y":       {Model: "live", Points: [][]float64{{0.1, 0.1}}},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/ingest", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d %s", name, resp.StatusCode, body)
		}
		if p := srv.ingestStateFor("live").pending.Load(); p != 0 {
			t.Fatalf("%s: refused request left %d points pending", name, p)
		}
	}
	resp, _ = postJSON(t, ts.URL+"/v1/ingest", ingestRequest{Model: "ghost", Points: [][]float64{{0.1, 0.1}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: %d", resp.StatusCode)
	}

	// Backpressure: IngestQueue is 2 points, so a 3-point request is shed
	// with 429 before touching the queue.
	resp, body := postJSON(t, ts.URL+"/v1/ingest", ingestRequest{
		Model:  "live",
		Points: [][]float64{{0.1, 0.1}, {0.2, 0.2}, {0.3, 0.3}},
		Y:      []float64{1, 2, 3},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overfull ingest: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestIngestRetiredWorkerNeverPublishes pins publication ownership: a
// refit of a streaming model's name supersedes the old ingest state, and
// a batch that state applies afterwards must leave the refit's entry in
// place, whether the refit could take the old lineage's delta (a plain
// Epanechnikov refit) or would reject it (an "all"-anchored Gaussian
// refit).
func TestIngestRetiredWorkerNeverPublishes(t *testing.T) {
	x, y, labeled := streamData(29, 64, 16)
	const h = 0.35
	for _, tc := range []struct {
		name  string
		refit fitRequest
	}{
		{"plain-refit", fitRequest{X: x, Y: y, Labeled: labeled, Kernel: "epanechnikov", Bandwidth: h}},
		{"anchor-all-gaussian-refit", fitRequest{X: x, Y: y, Labeled: labeled, Bandwidth: h, AnchorSet: "all"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := testServer(t, Config{Workers: 1})
			streamFit(t, ts.URL, "live", x, y, labeled, h)
			old := srv.ingestStateFor("live")
			resp, body := postJSON(t, ts.URL+"/v1/models/live", tc.refit)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("refit: %d %s", resp.StatusCode, body)
			}
			<-old.done // the refit stopped the old worker
			want, err := srv.registry.Load("live")
			if err != nil {
				t.Fatal(err)
			}

			old.pending.Add(1)
			srv.applyIngest(old, []ingestJob{{pts: [][]float64{{0.5, 0.5}}, y: []float64{2}, arrival: time.Now()}})
			got, err := srv.registry.Load("live")
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("retired worker published over the refit: version %d (%d anchors, %v kernel), want %d (%d anchors, %v kernel)",
					got.Version, got.Model.Info().Anchors, got.Model.Info().Kernel,
					want.Version, want.Model.Info().Anchors, want.Model.Info().Kernel)
			}
		})
	}
}

// TestIngestCloseAppliesAdmitted pins the worker's half of the Close
// contract: a worker stopped with points still queued applies every one
// of them, in arrival order, before it exits.
func TestIngestCloseAppliesAdmitted(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	defer srv.Close()
	x, y, labeled := streamData(31, 64, 16)
	m, err := NewModel(fitSnapshot(t, x, y, labeled, graphssl.WithKernel(graphssl.Epanechnikov), graphssl.WithBandwidth(0.35), graphssl.WithWorkers(1)), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	e, err := srv.registry.Store("live", m)
	if err != nil {
		t.Fatal(err)
	}
	st := newIngestState(e, 64)
	const n = 20
	rng := rand.New(rand.NewSource(5))
	var d graphssl.SnapshotDelta
	for i := 0; i < n; i++ {
		p, yv := []float64{rng.Float64(), rng.Float64()}, float64(i)
		d.X, d.Y = append(d.X, p), append(d.Y, yv)
		st.pending.Add(1)
		st.ch <- ingestJob{pts: [][]float64{p}, y: []float64{yv}, arrival: time.Now()}
	}
	st.close()
	srv.runIngest(st)

	if p := st.pending.Load(); p != 0 {
		t.Fatalf("%d admitted points left unapplied", p)
	}
	got, err := srv.registry.Load("live")
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.ApplyDelta(&d)
	if err != nil {
		t.Fatal(err)
	}
	if a := got.Model.Info().Anchors; a != len(labeled)+n || !samePredictions(got.Model, want, d.X) {
		t.Fatalf("served %d anchors, want %d in arrival order", a, len(labeled)+n)
	}
}

// TestIngestConcurrentFitsAgree races a streaming fit against a plain
// Gaussian fit of the same name. Whichever publishes last must own both
// halves of the name: a streaming entry has a registered ingest state
// that owns its version, and a plain entry has none.
func TestIngestConcurrentFitsAgree(t *testing.T) {
	x, y, labeled := streamData(37, 64, 16)
	const h = 0.35
	var bodies [][]byte
	for _, req := range []fitRequest{
		{X: x, Y: y, Labeled: labeled, Kernel: "epanechnikov", Bandwidth: h, Stream: true},
		{X: x, Y: y, Labeled: labeled, Bandwidth: h},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	srv := NewServer(Config{Workers: 1})
	defer srv.Close()
	handler := srv.Handler()
	for run := 0; run < 150; run++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, b := range bodies {
			wg.Add(1)
			go func(b []byte) {
				defer wg.Done()
				<-start
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/models/race", bytes.NewReader(b)))
				if rec.Code != http.StatusOK {
					t.Errorf("fit: %d %s", rec.Code, rec.Body)
				}
			}(b)
		}
		close(start)
		wg.Wait()
		e, err := srv.registry.Load("race")
		if err != nil {
			t.Fatal(err)
		}
		st := srv.ingestStateFor("race")
		if kind := e.Model.Info().Kernel; kind == "epanechnikov" {
			if st == nil || st.version != e.Version {
				t.Fatalf("run %d: streaming entry at version %d has ingest state %+v", run, e.Version, st)
			}
		} else if st != nil {
			t.Fatalf("run %d: plain %s entry at version %d kept the ingest state of version %d", run, kind, e.Version, st.version)
		}
	}
}

// TestRegistryRollForwardUnderLoad hammers the registry with concurrent
// predictions while a roll-forward loop (ApplyDelta, Store) hot-swaps the
// model, then deletes and refits under the same name. Versions must be
// strictly monotonic across the whole run, every observed (version,
// score) pair must match the model that carried that version, and the
// race detector must stay quiet.
func TestRegistryRollForwardUnderLoad(t *testing.T) {
	x, y, labeled := streamData(19, 64, 16)
	snap := fitSnapshot(t, x, y, labeled, graphssl.WithKernel(graphssl.Epanechnikov), graphssl.WithBandwidth(0.35), graphssl.WithWorkers(1))
	m, err := NewModel(snap, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	reg := &Registry{}
	if _, err := reg.Store("live", m); err != nil {
		t.Fatal(err)
	}

	// Every published version's expected score at the probe point, for
	// readers to check their (version, score) observations against.
	q := []float64{0.4, 0.4}
	var mu sync.Mutex
	wantByVersion := map[int64]uint64{}
	record := func(v int64, m *Model) {
		s, err := m.Predict(q)
		if err != nil {
			t.Errorf("version %d: %v", v, err)
			return
		}
		mu.Lock()
		wantByVersion[v] = math.Float64bits(s)
		mu.Unlock()
	}
	record(1, m)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int64
			for !stop.Load() {
				e, err := reg.Load("live")
				if err != nil {
					continue // deleted window mid-run
				}
				if e.Version < last {
					t.Errorf("version went backwards: %d after %d", e.Version, last)
					return
				}
				last = e.Version
				s, err := e.Model.Predict(q)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				want, ok := wantByVersion[e.Version]
				mu.Unlock()
				if ok && math.Float64bits(s) != want {
					t.Errorf("version %d served stale bits", e.Version)
					return
				}
			}
		}()
	}

	// Writer: 20 delta roll-forwards, then delete + refit, then 5 more.
	// snap follows the served model, for the refit.
	rng := rand.New(rand.NewSource(23))
	cur := m
	rollForward := func() {
		d := &graphssl.SnapshotDelta{X: [][]float64{{rng.Float64(), rng.Float64()}}, Y: []float64{rng.NormFloat64()}}
		next, err := cur.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		if snap, err = snap.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		e, err := reg.Store("live", next)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
		record(e.Version, next)
	}
	for i := 0; i < 20; i++ {
		rollForward()
	}
	if err := reg.Delete("live"); err != nil {
		t.Fatal(err)
	}
	// Refit under the same name: the version must keep climbing past the
	// deleted generation so cached or remembered versions can never alias.
	m2, err := NewModel(snap, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	e, err := reg.Store("live", m2)
	if err != nil {
		t.Fatal(err)
	}
	if e.Version != 22 {
		t.Fatalf("post-delete version = %d, want 22", e.Version)
	}
	cur = m2
	record(e.Version, m2)
	for i := 0; i < 5; i++ {
		rollForward()
	}

	stop.Store(true)
	wg.Wait()

	if e, err := reg.Load("live"); err != nil || e.Version != 27 {
		t.Fatalf("final entry: %+v %v", e, err)
	}
}
