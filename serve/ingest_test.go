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
// "stream": true, trickle labeled points through POST /v1/ingest, and
// check the rolled-forward model serves predictions bitwise-identical to
// an in-process ingestor fed the same edits — including through the
// version-keyed prediction cache.
func TestIngestE2E(t *testing.T) {
	srv, ts := testServer(t, Config{Workers: 1})
	x, y, labeled := streamData(11, 64, 16)
	const h = 0.35

	fr := streamFit(t, ts.URL, "live", x, y, labeled, h)
	if fr.Version != 1 || fr.Info.Anchors != 16 {
		t.Fatalf("stream fit response: %+v", fr)
	}

	// Twin ingestor fed the identical edit sequence, for the expected
	// served bits.
	twin, err := stream.New(x, y, labeled, stream.Config{
		Kernel: graphssl.Epanechnikov, Bandwidth: h, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	q := []float64{0.31, 0.29}
	resp, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "live", Points: [][]float64{q}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d %s", resp.StatusCode, body)
	}
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Version != 1 {
		t.Fatalf("predict version = %d", pr.Version)
	}

	// Trickle three labeled points in two back-to-back requests with a
	// predict between them; the worker rolls the model forward once or
	// twice. A queued job's points are read after its handler returns, so
	// they must not share decode storage with the predict that follows. A
	// batch of unlabeled points first keeps the worker busy for some
	// milliseconds, so the labeled jobs are still queued when the predict
	// decodes; unlabeled points add no anchors, but the twin takes them
	// too.
	pts := [][]float64{{0.30, 0.30}, {0.62, 0.18}, {0.15, 0.77}}
	ys := []float64{3, -3, 1.5}
	busy := make([][]float64, 400)
	rng := rand.New(rand.NewSource(3))
	for i := range busy {
		busy[i] = []float64{rng.Float64(), rng.Float64()}
		if _, err := twin.Insert(busy[i]); err != nil {
			t.Fatal(err)
		}
	}
	resp, body = postJSON(t, ts.URL+"/v1/ingest", ingestRequest{Model: "live", Points: busy})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("unlabeled ingest: %d %s", resp.StatusCode, body)
	}
	for _, part := range [][2]int{{0, 2}, {2, 3}} {
		resp, body = postJSON(t, ts.URL+"/v1/ingest", ingestRequest{Model: "live", Points: pts[part[0]:part[1]], Y: ys[part[0]:part[1]]})
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
		if part[0] == 0 {
			resp, body = postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "live", Points: [][]float64{{0.9, 0.9}, {0.8, 0.1}}})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("predict between ingests: %d %s", resp.StatusCode, body)
			}
		}
	}

	e := waitForVersion(t, ts.URL, "live", 2)
	for e.Info.Anchors < 19 {
		e = waitForVersion(t, ts.URL, "live", e.Version+1)
	}
	if e.Info.Anchors != 19 {
		t.Fatalf("rolled model anchors = %d, want 19", e.Info.Anchors)
	}

	for i, p := range pts {
		if _, err := twin.InsertLabeled(p, ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := twin.Refresh(); err != nil {
		t.Fatal(err)
	}
	snap, err := twin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewModel(snap, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}

	// The same cached query must now answer from the new version with the
	// new bits: the version-keyed cache can never serve the stale score.
	resp, body = postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "live", Points: [][]float64{q}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Version != e.Version {
		t.Fatalf("post-ingest predict version = %d, want %d", pr.Version, e.Version)
	}
	ws, err := want.Predict(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(pr.Scores[0]) != math.Float64bits(ws) {
		t.Fatalf("served %v != twin %v", pr.Scores[0], ws)
	}

	// Unlabeled points refresh the transductive state without changing the
	// anchors, so no republish happens and the version holds.
	resp, _ = postJSON(t, ts.URL+"/v1/ingest", ingestRequest{Model: "live", Points: [][]float64{{0.5, 0.5}}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("unlabeled ingest: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.ingestStateFor("live").pending.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("unlabeled ingest never drained")
		}
		time.Sleep(time.Millisecond)
	}
	if e2 := waitForVersion(t, ts.URL, "live", e.Version); e2.Version != e.Version {
		t.Fatalf("unlabeled ingest bumped version to %d", e2.Version)
	}

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

// TestIngestIsolatedPointKeepsPublishing: an unlabeled point with no
// neighbour makes every refresh fail, and its compaction too, until a
// label reaches it. Labeled points ingested meanwhile must still be
// served: their anchors are the responses themselves, so the worker
// publishes the appendable delta even when the refresh fails, and counts
// the failure.
func TestIngestIsolatedPointKeepsPublishing(t *testing.T) {
	srv, ts := testServer(t, Config{Workers: 1})
	x, y, labeled := streamData(11, 64, 16)
	const h = 0.35
	fr := streamFit(t, ts.URL, "live", x, y, labeled, h)
	if fr.Version != 1 || fr.Info.Anchors != 16 {
		t.Fatalf("stream fit response: %+v", fr)
	}
	errs := ingErrors.Value()

	resp, body := postJSON(t, ts.URL+"/v1/ingest", ingestRequest{Model: "live", Points: [][]float64{{5, 5}}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("isolated ingest: %d %s", resp.StatusCode, body)
	}
	pts := [][]float64{{0.30, 0.30}, {0.62, 0.18}, {0.15, 0.77}}
	ys := []float64{3, -3, 1.5}
	resp, body = postJSON(t, ts.URL+"/v1/ingest", ingestRequest{Model: "live", Points: pts, Y: ys})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("labeled ingest: %d %s", resp.StatusCode, body)
	}
	e := waitForVersion(t, ts.URL, "live", 2)
	for e.Info.Anchors < 19 {
		e = waitForVersion(t, ts.URL, "live", e.Version+1)
	}
	if e.Info.Anchors != 19 {
		t.Fatalf("served anchors = %d, want 19", e.Info.Anchors)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.ingestStateFor("live").pending.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("ingest never drained")
		}
		time.Sleep(time.Millisecond)
	}
	if got := ingErrors.Value() - errs; got < 1 {
		t.Fatalf("failed refreshes counted %d times, want at least 1", got)
	}

	// The served model is the fitted one with the three labels appended.
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
	want, err := base.ApplyDelta(&graphssl.SnapshotDelta{X: pts, Y: ys})
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0.31, 0.29}
	resp, body = postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "live", Points: [][]float64{q}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d %s", resp.StatusCode, body)
	}
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	ws, err := want.Predict(q)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Version != e.Version || math.Float64bits(pr.Scores[0]) != math.Float64bits(ws) {
		t.Fatalf("served %v at version %d, want %v at version %d", pr.Scores[0], pr.Version, ws, e.Version)
	}
}

// resetStaleness empties the staleness ring, so that a test can count its
// own observations below the ring's capacity.
func resetStaleness() {
	stalenessWin.mu.Lock()
	stalenessWin.n, stalenessWin.idx = 0, 0
	stalenessWin.mu.Unlock()
}

// stalenessCount returns how many requests the staleness ring has
// observed since the last reset, up to its capacity.
func stalenessCount() int {
	stalenessWin.mu.Lock()
	defer stalenessWin.mu.Unlock()
	return stalenessWin.n
}

// TestIngestRejectedDeltaRepublishes: a delta the served model rejects
// is an error, and its labels, which TakeDelta has already moved past,
// reach the served model with the next full republish, after a
// successful refresh, instead of being dropped. The staleness ring
// observes each labeled request once its labels are served: at the delta
// publish, even when the refresh after it fails, or at the full
// republish that serves labels an earlier batch owed. The worker's steps
// run in-process on a state with no goroutine, so the served model can
// be swapped between them.
func TestIngestRejectedDeltaRepublishes(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	t.Cleanup(srv.Close)
	resetStaleness()
	x, y, labeled := streamData(11, 64, 16)
	ing, err := stream.New(x, y, labeled, stream.Config{
		Kernel: graphssl.Epanechnikov, Bandwidth: 0.35, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ing.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Deltas append labeled anchors, so a model anchored on every point
	// rejects them.
	all, err := NewModel(snap, WithWorkers(1), WithAnchorSet(AnchorAll))
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewModel(snap, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	e, err := srv.registry.Store("live", all)
	if err != nil {
		t.Fatal(err)
	}
	st := newIngestState(e, ing, 4)
	job := func(pts [][]float64, ys []float64) []ingestJob {
		return []ingestJob{{pts: pts, y: ys, arrival: time.Now()}}
	}

	// An isolated unlabeled point fails the refresh; the three labels'
	// delta is rejected. Both failures count.
	errs := ingErrors.Value()
	srv.applyIngest(st, job([][]float64{{5, 5}}, nil))
	if got := ingErrors.Value() - errs; got != 1 {
		t.Fatalf("isolated point counted %d errors, want 1", got)
	}
	errs = ingErrors.Value()
	srv.applyIngest(st, job([][]float64{{0.30, 0.30}, {0.62, 0.18}, {0.15, 0.77}}, []float64{3, -3, 1.5}))
	if got := ingErrors.Value() - errs; got != 2 {
		t.Fatalf("failed refresh and rejected delta counted %d errors, want 2", got)
	}
	if cur, _ := srv.registry.Load("live"); cur.Version != e.Version {
		t.Fatalf("a rejected delta published version %d", cur.Version)
	}
	if n := stalenessCount(); n != 0 {
		t.Fatalf("staleness observed %d requests before any label was served", n)
	}

	// Serve a model that takes deltas, then label the isolated point's
	// component so the refresh succeeds: the next publish must carry all
	// four labels, not only the newest.
	e, err = srv.registry.storeIf("live", st.version, base)
	if err != nil {
		t.Fatal(err)
	}
	st.version = e.Version
	errs = ingErrors.Value()
	srv.applyIngest(st, job([][]float64{{5, 5.01}}, []float64{2}))
	if got := ingErrors.Value() - errs; got != 0 {
		t.Fatalf("repairing batch counted %d errors", got)
	}
	cur, err := srv.registry.Load("live")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version != e.Version+1 || cur.Model.NumAnchors() != 20 {
		t.Fatalf("served version %d with %d anchors, want version %d with 20", cur.Version, cur.Model.NumAnchors(), e.Version+1)
	}
	if n := stalenessCount(); n != 2 {
		t.Fatalf("staleness observed %d requests after the republish, want 2 (the owed one and this one)", n)
	}

	// Deltas resume after the republish.
	srv.applyIngest(st, job([][]float64{{0.45, 0.55}}, []float64{-1}))
	if cur, _ = srv.registry.Load("live"); cur.Model.NumAnchors() != 21 {
		t.Fatalf("served %d anchors after a delta, want 21", cur.Model.NumAnchors())
	}

	// A labeled batch whose refresh fails is served by its delta, and
	// observed there.
	srv.applyIngest(st, job([][]float64{{-5, -5}}, nil))
	errs = ingErrors.Value()
	srv.applyIngest(st, job([][]float64{{0.7, 0.7}}, []float64{0.5}))
	if got := ingErrors.Value() - errs; got != 1 {
		t.Fatalf("failed refresh counted %d errors, want 1", got)
	}
	if cur, _ = srv.registry.Load("live"); cur.Model.NumAnchors() != 22 {
		t.Fatalf("served %d anchors after a delta, want 22", cur.Model.NumAnchors())
	}
	if n := stalenessCount(); n != 4 {
		t.Fatalf("staleness observed %d requests, want 4: a delta served past a failed refresh was not counted", n)
	}
}

// TestIngestDeltaPublishesBeforeRefresh pins the worker's order: a
// batch's appendable delta goes out before its refresh, so it is served
// even when that refresh compacts. The full republish a compaction calls
// for follows in the same batch: left to the next batch, it would wait on
// that batch's refresh, which an isolated point fails, and no later label
// could go out. The steps run in-process on a state with no goroutine.
func TestIngestDeltaPublishesBeforeRefresh(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	t.Cleanup(srv.Close)
	x, y, labeled := streamData(11, 64, 16)
	// One dead id among 64 live ones is above this threshold, so the
	// refresh after a delete compacts.
	ing, err := stream.New(x, y, labeled, stream.Config{
		Kernel: graphssl.Epanechnikov, Bandwidth: 0.35, Workers: 1, CompactFrac: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ing.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewModel(snap, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	e, err := srv.registry.Store("live", base)
	if err != nil {
		t.Fatal(err)
	}
	st := newIngestState(e, ing, 16)
	job := func(pts [][]float64, ys []float64) []ingestJob {
		return []ingestJob{{pts: pts, y: ys, arrival: time.Now()}}
	}
	rng := rand.New(rand.NewSource(13))
	qs := make([][]float64, 64)
	for i := range qs {
		qs[i] = []float64{rng.Float64(), rng.Float64()}
	}
	served := func() *Model {
		t.Helper()
		cur, err := srv.registry.Load("live")
		if err != nil {
			t.Fatal(err)
		}
		return cur.Model
	}

	if err := ing.Delete(40); err != nil { // an unlabeled point
		t.Fatal(err)
	}
	pts := [][]float64{{0.30, 0.30}, {0.62, 0.18}, {0.15, 0.77}}
	ys := []float64{3, -3, 1.5}
	deltas, fulls := ingDeltaRoll.Value(), ingFullRoll.Value()
	srv.applyIngest(st, job(pts, ys))
	if c := ing.Stats().Compactions; c != 1 {
		t.Fatalf("refresh compacted %d times, want 1", c)
	}
	if d, f := ingDeltaRoll.Value()-deltas, ingFullRoll.Value()-fulls; d != 1 || f != 1 {
		t.Fatalf("compacting batch published %d deltas and %d full snapshots, want 1 and 1", d, f)
	}
	want, err := base.ApplyDelta(&graphssl.SnapshotDelta{X: pts, Y: ys})
	if err != nil {
		t.Fatal(err)
	}
	if snap, err = ing.Snapshot(); err != nil {
		t.Fatal(err)
	}
	full, err := NewModel(snap, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if m := served(); m.NumAnchors() != 19 || !samePredictions(m, want, qs) || !samePredictions(m, full, qs) {
		t.Fatalf("served model (%d anchors) differs from the base model with the batch appended or from the compacted snapshot's (19)", m.NumAnchors())
	}

	// An isolated point fails every later refresh; labels still go out as
	// deltas.
	srv.applyIngest(st, job([][]float64{{5, 5}}, nil))
	deltas, fulls = ingDeltaRoll.Value(), ingFullRoll.Value()
	p, yv := []float64{0.45, 0.55}, -1.0
	srv.applyIngest(st, job([][]float64{p}, []float64{yv}))
	if d, f := ingDeltaRoll.Value()-deltas, ingFullRoll.Value()-fulls; d != 1 || f != 0 {
		t.Fatalf("batch past a failing refresh published %d deltas and %d full snapshots, want 1 and 0", d, f)
	}
	if want, err = want.ApplyDelta(&graphssl.SnapshotDelta{X: [][]float64{p}, Y: []float64{yv}}); err != nil {
		t.Fatal(err)
	}
	if m := served(); m.NumAnchors() != 20 || !samePredictions(m, want, qs) {
		t.Fatalf("served model (%d anchors) differs from the rolled-forward one (20)", m.NumAnchors())
	}
}

// TestIngestValidation covers the request-shape and configuration errors
// of the streaming surface.
func TestIngestValidation(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, IngestQueue: 2})
	x, y, labeled := streamData(13, 48, 12)
	const h = 0.35

	// Streaming fit constraints.
	for name, req := range map[string]fitRequest{
		"gaussian kernel": {X: x, Y: y, Labeled: labeled, Bandwidth: h, Stream: true},
		"no bandwidth":    {X: x, Y: y, Labeled: labeled, Kernel: "epanechnikov", Stream: true},
		"knn":             {X: x, Y: y, Labeled: labeled, Kernel: "epanechnikov", Bandwidth: h, KNN: 4, Stream: true},
		"top_m":           {X: x, Y: y, Labeled: labeled, Kernel: "epanechnikov", Bandwidth: h, TopM: 4, Stream: true},
		"anchor all":      {X: x, Y: y, Labeled: labeled, Kernel: "epanechnikov", Bandwidth: h, AnchorSet: "all", Stream: true},
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
		"non-stream": {Model: "plain", Points: [][]float64{{0.1, 0.1}}},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/ingest", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d %s", name, resp.StatusCode, body)
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
// Epanechnikov refit) or would be replaced by its full republish (an
// "all"-anchored Gaussian refit).
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
// of them, batch by batch, before it exits.
func TestIngestCloseAppliesAdmitted(t *testing.T) {
	srv := NewServer(Config{Workers: 1, IngestBatch: 1})
	defer srv.Close()
	x, y, labeled := streamData(31, 64, 16)
	ing, err := stream.New(x, y, labeled, stream.Config{
		Kernel: graphssl.Epanechnikov, Bandwidth: 0.35, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ing.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(snap, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	e, err := srv.registry.Store("live", m)
	if err != nil {
		t.Fatal(err)
	}
	st := newIngestState(e, ing, 64)
	const n = 20
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		st.pending.Add(1)
		st.ch <- ingestJob{pts: [][]float64{{rng.Float64(), rng.Float64()}}, y: []float64{float64(i)}, arrival: time.Now()}
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
	if a := got.Model.Info().Anchors; a != len(labeled)+n {
		t.Fatalf("served anchors = %d, want %d", a, len(labeled)+n)
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
// predictions while the in-process roll-forward loop (refresh, TakeDelta,
// ApplyDelta, Store) hot-swaps the model, then deletes and refits under
// the same name. Versions must be strictly monotonic across the whole
// run, every observed (version, score) pair must match the model that
// carried that version, and the race detector must stay quiet.
func TestRegistryRollForwardUnderLoad(t *testing.T) {
	x, y, labeled := streamData(19, 64, 16)
	const h = 0.35
	ing, err := stream.New(x, y, labeled, stream.Config{
		Kernel: graphssl.Epanechnikov, Bandwidth: h, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ing.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
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
	rng := rand.New(rand.NewSource(23))
	cur := m
	rollForward := func() {
		p := []float64{rng.Float64(), rng.Float64()}
		if _, err := ing.InsertLabeled(p, rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
		if _, err := ing.Refresh(); err != nil {
			t.Fatal(err)
		}
		d, ok := ing.TakeDelta()
		if !ok {
			t.Fatal("delta not available")
		}
		next, err := cur.ApplyDelta(d)
		if err != nil {
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
	snap2, err := ing.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ing.MarkPublished()
	m2, err := NewModel(snap2, WithWorkers(1))
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
