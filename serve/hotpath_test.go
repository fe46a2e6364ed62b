package serve

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"testing"

	graphssl "repro"
)

// TestPredCache covers the cache container itself: exact hits, version and
// point keying, the FIFO bound, and the disabled (nil) form.
func TestPredCache(t *testing.T) {
	c := newPredCache(32) // 2 entries per shard
	p1 := []float64{1.5, -2.25}
	p2 := []float64{1.5, -2.25000001}
	c.put("m", 1, p1, 3.5, 0.25, psOK)

	if v, b, st, ok := c.get("m", 1, p1); !ok || v != 3.5 || b != 0.25 || st != psOK {
		t.Fatalf("hit = %v %v %v %v", v, b, st, ok)
	}
	if _, _, _, ok := c.get("m", 2, p1); ok {
		t.Fatal("stale version hit")
	}
	if _, _, _, ok := c.get("other", 1, p1); ok {
		t.Fatal("wrong model hit")
	}
	if _, _, _, ok := c.get("m", 1, p2); ok {
		t.Fatal("near-miss point hit")
	}
	if _, _, _, ok := c.get("m", 1, p1[:1]); ok {
		t.Fatal("prefix point hit")
	}

	// Isolated outcomes cache too.
	c.put("m", 1, p2, 0, 0, psIsolated)
	if _, _, st, ok := c.get("m", 1, p2); !ok || st != psIsolated {
		t.Fatalf("isolated entry: %v %v", st, ok)
	}

	// The bound holds: insert far more than capacity, size stays capped.
	for i := 0; i < 500; i++ {
		c.put("m", 1, []float64{float64(i), 0}, float64(i), 0, psOK)
	}
	if n := c.len(); n > 32 {
		t.Fatalf("cache grew to %d entries, cap 32", n)
	}

	// Overwrite in place keeps the newest value.
	c.put("m", 3, p1, 1, 0, psOK)
	c.put("m", 3, p1, 2, 0, psOK)
	if v, _, _, ok := c.get("m", 3, p1); !ok || v != 2 {
		t.Fatalf("overwrite: %v %v", v, ok)
	}

	var nilCache *predCache
	if _, _, _, ok := nilCache.get("m", 1, p1); ok {
		t.Fatal("nil cache hit")
	}
	nilCache.put("m", 1, p1, 0, 0, psOK) // must not panic
	if nilCache.len() != 0 {
		t.Fatal("nil cache len")
	}
	if newPredCache(0) != nil || newPredCache(-1) != nil {
		t.Fatal("disabled cache not nil")
	}
}

// TestServerCacheExactness drives the cache through the HTTP path: repeated
// predictions hit the cache and stay bitwise-identical to the first
// (computed) response, hot-swapping the model invalidates by version, and
// the expvar counters move.
func TestServerCacheExactness(t *testing.T) {
	_, ts := testServer(t, Config{})
	x, y, labeled := testData(53, 100, 4, 30)
	fitOverHTTP(t, ts.URL, "c", x, y, labeled, 1.3)

	qs := [][]float64{x[labeled[0]], {0.1, 0.2, 0.3, 0.4}, {1, 0, -1, 0.5}}
	predict := func() predictResponse {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "c", Points: qs})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict: %d %s", resp.StatusCode, body)
		}
		var pr predictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}

	hits0, miss0 := srvCacheHits.Value(), srvCacheMisses.Value()
	first := predict()
	if srvCacheMisses.Value()-miss0 != int64(len(qs)) {
		t.Fatalf("cold misses = %d, want %d", srvCacheMisses.Value()-miss0, len(qs))
	}
	second := predict()
	if srvCacheHits.Value()-hits0 != int64(len(qs)) {
		t.Fatalf("warm hits = %d, want %d", srvCacheHits.Value()-hits0, len(qs))
	}
	for i := range first.Scores {
		if math.Float64bits(first.Scores[i]) != math.Float64bits(second.Scores[i]) {
			t.Fatalf("point %d: cached %v != computed %v", i, second.Scores[i], first.Scores[i])
		}
	}

	// Hot swap: the version bump makes every old entry unreachable; the same
	// query misses, recomputes, and (same data, same hyperparameters) agrees.
	fitOverHTTP(t, ts.URL, "c", x, y, labeled, 1.3)
	miss1 := srvCacheMisses.Value()
	third := predict()
	if third.Version != 2 {
		t.Fatalf("version = %d after refit", third.Version)
	}
	if srvCacheMisses.Value()-miss1 != int64(len(qs)) {
		t.Fatalf("post-swap misses = %d, want %d", srvCacheMisses.Value()-miss1, len(qs))
	}
	for i := range first.Scores {
		if math.Float64bits(first.Scores[i]) != math.Float64bits(third.Scores[i]) {
			t.Fatalf("point %d: post-swap %v != %v", i, third.Scores[i], first.Scores[i])
		}
	}

	// Mixed hit/miss requests scatter correctly: one cached point plus one
	// fresh point in a single request.
	mixed := [][]float64{qs[0], {2, 2, 2, 2}}
	resp, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "c", Points: mixed})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed: %d %s", resp.StatusCode, body)
	}
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(pr.Scores[0]) != math.Float64bits(third.Scores[0]) {
		t.Fatalf("mixed point 0: %v != %v", pr.Scores[0], third.Scores[0])
	}
}

// TestServerCacheDeleteRefit pins the stale-cache hazard: predictions cached
// for a model must not be served after DELETE + refit under the same name.
// The registry keeps per-name versions monotonic across deletion, so the
// refit model's cache keys can never collide with the dead model's — a point
// cached for the old "d" must recompute under the new "d" and agree bitwise
// with a from-scratch evaluation of the new labels.
func TestServerCacheDeleteRefit(t *testing.T) {
	_, ts := testServer(t, Config{})
	x, y, labeled := testData(71, 90, 4, 30)
	const h = 1.3

	fitOverHTTP(t, ts.URL, "d", x, y, labeled, h)

	// Query the in-sample unlabeled points so predictions are fully
	// determined by the labels the model was fit on.
	want1, unl, err := graphssl.NadarayaWatson(x, y, labeled, graphssl.WithBandwidth(h))
	if err != nil {
		t.Fatal(err)
	}
	qs := make([][]float64, len(unl))
	for i, u := range unl {
		qs[i] = x[u]
	}
	predict := func() predictResponse {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "d", Points: qs})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict: %d %s", resp.StatusCode, body)
		}
		var pr predictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}

	// Populate the cache (first call computes, second hits it).
	predict()
	first := predict()
	for i := range want1 {
		if math.Float64bits(first.Scores[i]) != math.Float64bits(want1[i]) {
			t.Fatalf("point %d: cached %v != baseline %v", i, first.Scores[i], want1[i])
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/d", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", dresp.StatusCode)
	}

	// Refit the same name with inverted labels: same anchors, same query
	// coordinates (so the cache keys match byte-for-byte if versions ever
	// restarted), different predictions.
	y2 := make([]float64, len(y))
	for i := range y {
		y2[i] = 2 - y[i]
	}
	fr := fitOverHTTP(t, ts.URL, "d", x, y2, labeled, h)
	if fr.Version != 2 {
		t.Fatalf("refit after delete: version = %d, want 2 (monotonic)", fr.Version)
	}
	want2, _, err := graphssl.NadarayaWatson(x, y2, labeled, graphssl.WithBandwidth(h))
	if err != nil {
		t.Fatal(err)
	}
	differ := 0
	for i := range want1 {
		if math.Float64bits(want1[i]) != math.Float64bits(want2[i]) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("test is toothless: old and new models predict identically")
	}

	third := predict()
	if third.Version != 2 {
		t.Fatalf("post-refit predict version = %d", third.Version)
	}
	for i := range want2 {
		if math.Float64bits(third.Scores[i]) != math.Float64bits(want2[i]) {
			t.Fatalf("point %d: served %v != new model's %v (stale cache from deleted model)",
				i, third.Scores[i], want2[i])
		}
	}
}

// TestServerShedQueue checks points-bounded admission end to end: an
// uncached request carrying more points than QueueDepth is rejected with
// 429 + Retry-After and counted in rejected_total, leaving no points
// admitted, while a fully cached request of the same size is still served.
func TestServerShedQueue(t *testing.T) {
	srv, ts := testServer(t, Config{QueueDepth: 2})
	x, y, labeled := testData(59, 60, 3, 20)
	fitOverHTTP(t, ts.URL, "q", x, y, labeled, 1.2)

	big := [][]float64{{1, 1, 1}, {2, 2, 2}, {3, 3, 3}}
	rej0 := srvRejected.Value()
	resp, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "q", Points: big})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over queue depth: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if srvRejected.Value() != rej0+1 {
		t.Fatal("rejected_total counter did not move")
	}
	if d := srv.inflight.Load(); d != 0 {
		t.Fatalf("rejected request leaked %d admitted points", d)
	}

	// Warm the cache within the bound, then re-request all three points:
	// a full cache hit is served however small the bound.
	for _, pts := range [][][]float64{big[:2], big[2:]} {
		resp, body = postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "q", Points: pts})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("within queue depth: %d %s", resp.StatusCode, body)
		}
	}
	resp, body = postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "q", Points: big})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached request shed: %d %s", resp.StatusCode, body)
	}
	if srvRejected.Value() != rej0+1 {
		t.Fatal("cached request counted as rejected")
	}
}

// TestBatcherOverload checks the admission bound in front of inline
// evaluation at the unit level: an uncached request over QueueDepth points
// fails fast with ErrOverloaded and leaves no points admitted, and one
// within the bound is still evaluated.
func TestBatcherOverload(t *testing.T) {
	m := batchModel(t)
	srv := NewServer(Config{QueueDepth: 8})
	defer srv.Close()
	e, err := srv.Registry().Store("overload", m)
	if err != nil {
		t.Fatal(err)
	}
	big := make([][]float64, 16)
	for i := range big {
		big[i] = make([]float64, m.Dim())
	}
	misses := func(pts [][]float64) *reqScratch {
		sc := new(reqScratch)
		sc.size(len(pts))
		for i, q := range pts {
			sc.missPts = append(sc.missPts, q)
			sc.missIdx = append(sc.missIdx, i)
		}
		return sc
	}
	if err := srv.predictMisses(e, misses(big)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("oversized request: %v", err)
	}
	if d := srv.inflight.Load(); d != 0 {
		t.Fatalf("rejected request leaked depth %d", d)
	}
	// Within budget still works.
	sc := misses(big[:8])
	if err := srv.predictMisses(e, sc); err != nil {
		t.Fatal(err)
	}
	for i, s := range sc.st[:8] {
		if s != psOK {
			t.Fatalf("point %d: status %d", i, s)
		}
	}
	if d := srv.inflight.Load(); d != 0 {
		t.Fatalf("admitted points not released: %d", d)
	}
}

// TestServerShedBudget checks the per-model point budget: one request with
// more uncached points than the model's budget is rejected, cached points
// do not count against it, and other models are unaffected.
func TestServerShedBudget(t *testing.T) {
	_, ts := testServer(t, Config{ModelBudget: 2})
	x, y, labeled := testData(61, 60, 3, 20)
	fitOverHTTP(t, ts.URL, "b1", x, y, labeled, 1.2)
	fitOverHTTP(t, ts.URL, "b2", x, y, labeled, 1.2)

	big := [][]float64{{1, 1, 1}, {2, 2, 2}, {3, 3, 3}}
	shed0 := srvShedBudget.Value()
	resp, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "b1", Points: big})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over budget: %d %s", resp.StatusCode, body)
	}
	if srvShedBudget.Value() != shed0+1 {
		t.Fatal("shed_budget counter did not move")
	}

	// Within budget succeeds, fills the cache, and releases its points.
	resp, _ = postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "b1", Points: big[:2]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("within budget: %d", resp.StatusCode)
	}
	// The same 3 points now carry 2 cached + 1 uncached: under budget.
	resp, _ = postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "b1", Points: big})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached points counted against budget: %d", resp.StatusCode)
	}
	// Budgets are per model.
	resp, _ = postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "b2", Points: big[:2]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other model: %d", resp.StatusCode)
	}
}

// TestServerTopM exercises top-m truncation end to end: the fit response
// reports the knn lookup path, predictions carry a nonzero residual bound,
// and combining top_m with a knn fit is rejected.
func TestServerTopM(t *testing.T) {
	_, ts := testServer(t, Config{})
	x, y, labeled := testData(67, 120, 4, 60)

	resp, body := postJSON(t, ts.URL+"/v1/models/t", fitRequest{
		X: x, Y: y, Labeled: labeled, Bandwidth: 1.5, TopM: 7,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fit top_m: %d %s", resp.StatusCode, body)
	}
	var fr fitResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Info.TopM != 7 || fr.Info.Pruning != "knn" {
		t.Fatalf("info: %+v", fr.Info)
	}

	resp, body = postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "t", Points: [][]float64{{0.3, -0.2, 0.8, 0.1}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d %s", resp.StatusCode, body)
	}
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if !(pr.ResidualBound > 0 && pr.ResidualBound < 1) {
		t.Fatalf("residual_bound = %v, want (0,1)", pr.ResidualBound)
	}
	prunedBefore := srvAnchorsPruned.Value()
	if prunedBefore <= 0 {
		t.Fatal("anchors_pruned counter never moved")
	}

	// Untruncated models report no residual bound on the wire.
	fitOverHTTP(t, ts.URL, "exact", x, y, labeled, 1.5)
	resp, body = postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "exact", Points: [][]float64{{0.3, -0.2, 0.8, 0.1}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exact predict: %d", resp.StatusCode)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if _, present := raw["residual_bound"]; present {
		t.Fatalf("exact model leaked residual_bound: %s", body)
	}

	// top_m on a knn-sparsified fit is contradictory.
	resp, _ = postJSON(t, ts.URL+"/v1/models/bad", fitRequest{
		X: x, Y: y, Labeled: labeled, Bandwidth: 1.5, KNN: 5, TopM: 7,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("knn+top_m fit: %d", resp.StatusCode)
	}
}

// batchModel builds a model big enough that batched evaluation does real
// work, with well-spread anchors so nothing is isolated.
func batchModel(t *testing.T) *Model {
	t.Helper()
	x, y, labeled := testData(21, 200, 6, 80)
	snap := fitSnapshot(t, x, y, labeled, graphssl.WithBandwidth(1.5))
	m, err := NewModel(snap)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestZeroAllocServe gates the serving hot path at zero heap allocations
// per operation: the model's batch core, the server's uncached predict
// step, and the decode of a canonical predict body, which keeps only its
// model name (run by the CI alloc gate).
func TestZeroAllocServe(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under the race detector (sync.Pool drops puts)")
	}
	m := batchModel(t)
	qs := make([][]float64, 8)
	for i := range qs {
		qs[i] = make([]float64, m.Dim())
		for j := range qs[i] {
			qs[i][j] = 0.05 * float64(i+j)
		}
	}
	dst := make([]float64, len(qs))
	st := make([]pointStatus, len(qs))
	bounds := make([]float64, len(qs))

	t.Run("predictInto", func(t *testing.T) {
		m.predictInto(dst, st, bounds, qs, 1) // warm the pools
		if n := testing.AllocsPerRun(100, func() {
			m.predictInto(dst, st, bounds, qs, 1)
		}); n != 0 {
			t.Fatalf("predictInto: %v allocs/op", n)
		}
	})

	t.Run("predictMisses", func(t *testing.T) {
		srv := NewServer(Config{})
		defer srv.Close()
		e, err := srv.Registry().Store("alloc", m)
		if err != nil {
			t.Fatal(err)
		}
		sc := new(reqScratch)
		sc.size(len(qs))
		step := func() {
			sc.missPts, sc.missIdx = sc.missPts[:0], sc.missIdx[:0]
			for i, q := range qs {
				sc.missPts = append(sc.missPts, q)
				sc.missIdx = append(sc.missIdx, i)
			}
			if err := srv.predictMisses(e, sc); err != nil {
				t.Fatal(err)
			}
		}
		step() // warm the pools and the cache entries put overwrites
		if n := testing.AllocsPerRun(100, step); n != 0 {
			t.Fatalf("predictMisses: %v allocs/op", n)
		}
		if d := srv.inflight.Load(); d != 0 {
			t.Fatalf("admitted points not released: %d", d)
		}
	})

	t.Run("decode", func(t *testing.T) {
		sc := new(reqScratch)
		sc.dec.body.Write(appendPointsBody(nil, "m1", renders(rand.New(rand.NewSource(3)), 8, 256)))
		step := func() {
			sc.req = predictRequest{}
			if err := sc.dec.decode(&sc.req); err != nil {
				t.Fatal(err)
			}
		}
		step() // grow the pooled backing
		// One allocation is left, the model name: the registry is keyed
		// by string, and the body buffer is reused by the next request.
		if n := testing.AllocsPerRun(100, step); n != 1 {
			t.Fatalf("decode: %v allocs/op, want 1", n)
		}
		if len(sc.req.Points) != 8 || len(sc.req.Points[7]) != 256 {
			t.Fatalf("decoded %d points", len(sc.req.Points))
		}
	})
}

// TestModelPredictBounds checks the batch core against the per-point
// path: predictInto equals Model.Predict bit for bit, malformed points
// compact correctly around good ones, and an exact model reports no
// truncation bound.
func TestModelPredictBounds(t *testing.T) {
	x, y, labeled := testData(71, 90, 4, 40)
	snap := fitSnapshot(t, x, y, labeled, graphssl.WithBandwidth(1.4))
	m, err := NewModel(snap)
	if err != nil {
		t.Fatal(err)
	}
	qs := [][]float64{
		x[labeled[0]],
		{math.NaN(), 0, 0, 0},
		{0.5, -0.5, 0.25, 0},
		{0, 0}, // bad dim
		{1, 1, 1, 1},
	}
	dst := make([]float64, len(qs))
	st := make([]pointStatus, len(qs))
	bounds := make([]float64, len(qs))
	m.predictInto(dst, st, bounds, qs, 1)
	if st[1] != psBadPoint || st[3] != psBadPoint {
		t.Fatalf("statuses: %v", st)
	}
	for i, q := range qs {
		v, err := m.Predict(q)
		if !errors.Is(err, st[i].err()) {
			t.Fatalf("point %d: batch status %d, per-point error %v", i, st[i], err)
		}
		if math.Float64bits(dst[i]) != math.Float64bits(v) {
			t.Fatalf("point %d: batch %v != per-point %v", i, dst[i], v)
		}
		if bounds[i] != 0 {
			t.Fatalf("point %d: exact model reported bound %v", i, bounds[i])
		}
	}
}
