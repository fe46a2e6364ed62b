package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	graphssl "repro"
	"repro/internal/randx"
)

// fitPathModel builds req's model through graphssl.Fit, Result.Snapshot
// and NewModel, the path every fit took before graphssl.HardSnapshot.
func fitPathModel(req fitRequest, workers int) (*Model, error) {
	mopts := []ModelOption{WithWorkers(workers)}
	switch req.AnchorSet {
	case "", "labeled":
	case "all":
		mopts = append(mopts, WithAnchorSet(AnchorAll))
	default:
		return nil, fmt.Errorf("anchor_set %q: %w", req.AnchorSet, ErrFitRequest)
	}
	if req.TopM > 0 {
		mopts = append(mopts, WithTopM(req.TopM))
	}
	opts, _, err := fitOptions(&req, workers)
	if err != nil {
		return nil, err
	}
	res, err := graphssl.Fit(req.X, req.Y, req.Labeled, opts...)
	if err != nil {
		return nil, err
	}
	snap, err := res.Snapshot(req.X, req.Y)
	if err != nil {
		return nil, err
	}
	return NewModel(snap, mopts...)
}

// ingestFixture is the bench ingest workload's base set at n points: a
// jittered grid over the unit square, every 10th point labeled with
// sin(4x)·cos(3y), fitted as a stream with Epanechnikov h = 3.2/⌈√n⌉.
func ingestFixture(n int, seed int64) fitRequest {
	rng := randx.New(seed)
	side := int(math.Ceil(math.Sqrt(float64(n))))
	jitter := 0.2 / float64(side)
	req := fitRequest{Kernel: "epanechnikov", Bandwidth: 3.2 / float64(side), Stream: true}
	for i := 0; i < n; i++ {
		px := (float64(i%side) + 0.5) / float64(side)
		py := (float64(i/side) + 0.5) / float64(side)
		req.X = append(req.X, []float64{px + jitter*(2*rng.Float64()-1), py + jitter*(2*rng.Float64()-1)})
	}
	for i := 0; i < n; i += 10 {
		req.Labeled = append(req.Labeled, i)
		req.Y = append(req.Y, math.Sin(4*req.X[i][0])*math.Cos(3*req.X[i][1]))
	}
	return req
}

// hardSnapshotCase is one fit request of the snapshot-path differential.
// trap marks the listed status change: the coverage check passes but the
// solve fails, so the Fit path answers 422 and the snapshot path 200.
type hardSnapshotCase struct {
	name string
	req  fitRequest
	trap bool
}

func hardSnapshotCases(t *testing.T) []hardSnapshotCase {
	zero, half := 0.0, 0.5
	var cases []hardSnapshotCase
	add := func(name string, req fitRequest) { cases = append(cases, hardSnapshotCase{name: name, req: req}) }
	x, y, l := testData(31, 120, 5, 40)
	add("testdata-gaussian", fitRequest{X: x, Y: y, Labeled: l, Bandwidth: 1.4})
	add("testdata-lambda-0", fitRequest{X: x, Y: y, Labeled: l, Bandwidth: 1.4, Lambda: &zero})
	add("testdata-lambda-0.5", fitRequest{X: x, Y: y, Labeled: l, Bandwidth: 1.4, Lambda: &half})
	add("testdata-anchor-all", fitRequest{X: x, Y: y, Labeled: l, Bandwidth: 1.4, AnchorSet: "all"})
	add("testdata-top-m", fitRequest{X: x, Y: y, Labeled: l, Bandwidth: 1.4, TopM: 5})
	x, y, l = testData(37, 60, 3, 20)
	add("testdata-median-bandwidth", fitRequest{X: x, Y: y, Labeled: l})
	add("testdata-epanechnikov", fitRequest{X: x, Y: y, Labeled: l, Kernel: "epanechnikov", Bandwidth: 3.5})
	add("testdata-knn", fitRequest{X: x, Y: y, Labeled: l, Kernel: "tricube", Bandwidth: 3.5, KNN: 8})
	// Repeated rows give zero pairwise distances (the robust suite's
	// duplicate_points input, on this package's fixture).
	x, y, l = testData(42, 120, 2, 30)
	for i := 40; i < 80; i++ {
		x[i] = x[i%20]
	}
	add("duplicate-points", fitRequest{X: x, Y: y, Labeled: l, Bandwidth: 1})
	x, y, l = streamData(41, 64, 16)
	add("streamdata-stream", fitRequest{X: x, Y: y, Labeled: l, Kernel: "epanechnikov", Bandwidth: 0.35, Stream: true})
	// A support below the grid spacing isolates every unlabeled point.
	add("streamdata-isolated", fitRequest{X: x, Y: y, Labeled: l, Kernel: "epanechnikov", Bandwidth: 0.1})
	add("streamdata-isolated-stream", fitRequest{X: x, Y: y, Labeled: l, Kernel: "epanechnikov", Bandwidth: 0.1, Stream: true})
	add("streamdata-isolated-anchor-all", fitRequest{X: x, Y: y, Labeled: l, Kernel: "epanechnikov", Bandwidth: 0.1, AnchorSet: "all"})
	add("ingest-5k", ingestFixture(5000, 1))
	for i, seed := range handlerSeeds {
		if seed.route != routeFit {
			continue
		}
		var req fitRequest
		if err := json.Unmarshal([]byte(seed.body), &req); err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("handler-seed-%d", i), req)
	}
	// FuzzFit's pinned input a2cda37e24dab175: four points about ten
	// apart under a Gaussian of h = 1. Every weight is positive, so the
	// coverage check passes, but the hard system is too small for
	// Cholesky.
	cases = append(cases, hardSnapshotCase{name: "fuzzfit-a2cda37e24dab175", trap: true, req: fitRequest{
		X:         [][]float64{{-3.21, 9.06, -1.2}, {5.92, 2.53, -3.21}, {9.06, -1.2, 5.92}, {2.53, -3.21, 9.06}},
		Y:         []float64{-1.2},
		Labeled:   []int{1},
		Bandwidth: 1,
	}})
	return cases
}

// wantStatus is the status the server answers for a fit that fails, on
// the Fit path, with err.
func wantStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, graphssl.ErrIsolated):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusBadRequest
	}
}

// hardQueries are in-sample points (at most 256 of them), each shifted by
// a tenth of a unit, and one point far from every anchor.
func hardQueries(x [][]float64) [][]float64 {
	step := max(1, len(x)/256)
	var qs [][]float64
	for i := 0; i < len(x); i += step {
		qs = append(qs, x[i])
		shifted := make([]float64, len(x[i]))
		for j, v := range x[i] {
			shifted[j] = v + 0.1
		}
		qs = append(qs, shifted)
	}
	far := make([]float64, len(x[0]))
	for j := range far {
		far[j] = 1e3
	}
	return append(qs, far)
}

// sameModel checks two models' Info, Predict and PredictBatch over qs bit
// for bit, failures included.
func sameModel(t *testing.T, got, want *Model, qs [][]float64) {
	t.Helper()
	if got.Info() != want.Info() {
		t.Fatalf("info %+v, want %+v", got.Info(), want.Info())
	}
	if !samePredictions(got, want, qs) {
		t.Fatal("PredictBatch differs")
	}
	for i, q := range qs {
		g, gerr := got.Predict(q)
		w, werr := want.Predict(q)
		if math.Float64bits(g) != math.Float64bits(w) || (gerr == nil) != (werr == nil) {
			t.Fatalf("Predict(query %d) = %v, %v; want %v, %v", i, g, gerr, w, werr)
		}
	}
}

// TestIngestHardSnapshotMatchesFitPath is the differential test of the
// snapshot path. Each fit request is built on the Fit path (Fit,
// Snapshot, NewModel) and posted to a server, which builds labeled-anchor
// hard fits with graphssl.HardSnapshot. The status must match the Fit
// path's, except for the trap input; a served model must answer Info and
// every prediction bit for bit as the Fit path's model. For the fits the
// server takes to the snapshot path, the library model NewModel(HardSnapshot)
// must also match the Fit path's, and so must both models rolled forward by
// one delta.
func TestIngestHardSnapshotMatchesFitPath(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	for _, tc := range hardSnapshotCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			ref, refErr := fitPathModel(tc.req, 1)
			want := wantStatus(refErr)
			if tc.trap {
				if refErr == nil || !errors.Is(refErr, graphssl.ErrIsolated) {
					t.Fatalf("trap input: Fit path gave %v, want a numerically singular ErrIsolated", refErr)
				}
				want = http.StatusOK
			}
			resp, body := postJSON(t, ts.URL+"/v1/models/"+tc.name, tc.req)
			if resp.StatusCode != want {
				t.Fatalf("fit: %d %s, want %d (Fit path: %v)", resp.StatusCode, body, want, refErr)
			}
			if want == http.StatusUnprocessableEntity {
				var he httpError
				if json.Unmarshal(body, &he) != nil || !strings.Contains(he.Error, graphssl.ErrIsolated.Error()) ||
					strings.Contains(he.Error, ErrPoint.Error()) {
					t.Fatalf("isolated fit envelope %s", body)
				}
			}
			if want != http.StatusOK {
				return
			}
			var fr fitResponse
			if err := json.Unmarshal(body, &fr); err != nil {
				t.Fatal(err)
			}
			qs := hardQueries(tc.req.X)
			served := servedPredictions(t, ts.URL, tc.name, qs)
			if tc.trap {
				checkTrapModel(t, tc.req, fr.Info, qs, served)
				return
			}
			if fr.Info != ref.Info() {
				t.Fatalf("served info %+v, want %+v", fr.Info, ref.Info())
			}
			rs, rerrs := ref.PredictBatch(qs)
			for i := range qs {
				if math.Float64bits(served.Scores[i]) != math.Float64bits(rs[i]) ||
					(rerrs != nil && rerrs[i] != nil) != (served.Errors != nil && served.Errors[i] != "") {
					t.Fatalf("served query %d = %v (errors %v), want %v (%v)", i, served.Scores[i], served.Errors, rs[i], rerrs)
				}
			}
			if tc.req.AnchorSet == "all" || (tc.req.Lambda != nil && *tc.req.Lambda != 0) {
				return // the Fit path serves these on both sides
			}
			opts, _, err := fitOptions(&tc.req, 1)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := graphssl.HardSnapshot(tc.req.X, tc.req.Y, tc.req.Labeled, opts...)
			if err != nil {
				t.Fatal(err)
			}
			mopts := []ModelOption{WithWorkers(1)}
			if tc.req.TopM > 0 {
				mopts = append(mopts, WithTopM(tc.req.TopM))
			}
			m, err := NewModel(snap, mopts...)
			if err != nil {
				t.Fatal(err)
			}
			sameModel(t, m, ref, qs)
			if tc.req.KNN > 0 || tc.req.TopM > 0 {
				return // truncated models take no delta
			}
			d := &graphssl.SnapshotDelta{Y: []float64{0.25, -1, 2}}
			for _, i := range []int{0, len(tc.req.X) / 2, len(tc.req.X) - 1} {
				p := append([]float64(nil), tc.req.X[i]...)
				p[0] += 0.05
				d.X = append(d.X, p)
			}
			mNext, err := m.ApplyDelta(d)
			if err != nil {
				t.Fatal(err)
			}
			refNext, err := ref.ApplyDelta(d)
			if err != nil {
				t.Fatal(err)
			}
			sameModel(t, mNext, refNext, qs)
		})
	}
}

// servedPredictions predicts qs over HTTP against the named model.
func servedPredictions(t *testing.T, base, name string, qs [][]float64) predictResponse {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/predict", predictRequest{Model: name, Points: qs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d %s", resp.StatusCode, body)
	}
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Scores) != len(qs) {
		t.Fatalf("%d scores for %d points", len(pr.Scores), len(qs))
	}
	return pr
}

// checkTrapModel checks what the server serves for the trap input, which
// has no Fit-path model: the Nadaraya–Watson estimator over the labeled
// points, bitwise graphssl.NadarayaWatson at the unlabeled in-sample points.
func checkTrapModel(t *testing.T, req fitRequest, info Info, qs [][]float64, served predictResponse) {
	t.Helper()
	if info.Anchors != len(req.Labeled) || info.TrainN != len(req.X) || info.LabeledN != len(req.Labeled) || info.Lambda != 0 {
		t.Fatalf("trap model info %+v", info)
	}
	opts, _, err := fitOptions(&req, 1)
	if err != nil {
		t.Fatal(err)
	}
	nw, unl, err := graphssl.NadarayaWatson(req.X, req.Y, req.Labeled, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for k, u := range unl {
		// hardQueries lists in-sample point i at 2i.
		if got := served.Scores[2*u]; math.Float64bits(got) != math.Float64bits(nw[k]) {
			t.Fatalf("unlabeled point %d served %v, NadarayaWatson %v", u, got, nw[k])
		}
	}
}

// TestIngestHardSnapshotRefusesAllAnchors pins NewModel's guard: the
// snapshot path's NaN unlabeled scores build labeled-anchor models only,
// and a hand-built snapshot with a non-finite anchor value builds none.
func TestIngestHardSnapshotRefusesAllAnchors(t *testing.T) {
	x, y, labeled := testData(11, 80, 3, 20)
	snap, err := graphssl.HardSnapshot(x, y, labeled, graphssl.WithBandwidth(1.2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewModel(snap); err != nil {
		t.Fatalf("labeled anchors: %v", err)
	}
	if _, err := NewModel(snap, WithAnchorSet(AnchorAll)); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("all anchors on a hard snapshot: err = %v, want ErrSnapshot", err)
	}
	full := fitSnapshot(t, x, y, labeled, graphssl.WithBandwidth(1.2))
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := *full
		bad.Scores = append([]float64(nil), full.Scores...)
		bad.Scores[labeled[3]] = v
		if _, err := NewModel(&bad); !errors.Is(err, ErrSnapshot) {
			t.Fatalf("labeled anchor value %v: err = %v, want ErrSnapshot", v, err)
		}
	}
}
