package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// fuzzRoutes are the POST routes FuzzServeHandlers drives; an input's
// route byte picks one. Fits go to their own name so the two fixture
// models stay in place.
var fuzzRoutes = []string{"/v1/predict", "/v1/ingest", "/v1/models/fz"}

// Route bytes of FuzzServeHandlers' inputs, indexing fuzzRoutes.
const routePredict, routeIngest, routeFit = 0, 1, 2

const okPredictBody = `{"model":"m","points":[[0.5,0.25,1]]}`

// handlerSeeds are FuzzServeHandlers' seed inputs, in the order it adds
// them.
var handlerSeeds = []struct {
	route byte
	body  string
}{
	// The bodies of TestServerErrorMapping.
	{routePredict, `{`},
	{routePredict, `{"nope":1}`},
	{routePredict, `{"model":"m"}`},
	{routePredict, `{"model":"m","points":[[],[],[],[],[]]}`},
	{routePredict, `{"model":"ghost","points":[[0,0,0]]}`},
	{routeFit, `{"x":[[0,0],[1,1]],"y":[1],"kernel":"nope"}`},
	{routeFit, `{"x":[[0,0],[1,1]],"y":[1],"anchor_set":"some"}`},
	{routeFit, `{"x":[[0,0],[1,1]],"y":[1,0],"labeled":[0,0]}`},
	{routePredict, `{"model":"m","points":[[1e400,0,0]]}`},
	{routePredict, `{"model":"m","points":[[01,0,0]]}`},
	{routePredict, okPredictBody[:len(okPredictBody)-4]},
	{routePredict, okPredictBody + `{"model":"x"}`},
	{routePredict, `{"model":"m","points":[[0.5,0.25,1],[500,500,500],[0,0]]}`},
	// The other routes, well formed.
	{routeIngest, `{"model":"s","points":[[0.5,0.5]],"y":[1]}`},
	{routeIngest, `{"model":"s","points":[[0.25,0.75]]}`},
	{routeIngest, `{"model":"m","points":[[0,0,0]],"y":[1]}`},
	{routeFit, `{"x":[[0,0],[0.5,0.5],[1,1]],"y":[1,0],"labeled":[0,2],"bandwidth":1}`},
	{routeFit, `{"x":[[0,0],[0.5,0.5],[1,1]],"y":[1,0],"labeled":[0,2],"kernel":"epanechnikov","bandwidth":1,"stream":true}`},
}

// FuzzServeHandlers sends arbitrary bodies through the server's handler
// to the predict, ingest and fit routes, against one plain model ("m",
// 3-d) and one streaming model ("s", 2-d). Whatever the body, the server
// must not panic or answer 5xx; every non-2xx must be a 4xx carrying a
// JSON error envelope, and a 200 predict must carry one score per point
// and, when it reports errors, one error slot per point.
func FuzzServeHandlers(f *testing.F) {
	srv := NewServer(Config{MaxPoints: 4, MaxBodyBytes: 1 << 16, IngestQueue: 64})
	f.Cleanup(srv.Close)
	handler := srv.Handler()
	post := func(route string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
		return rec
	}
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	x, y, labeled := testData(37, 60, 3, 20)
	plainFit := mustJSON(fitRequest{X: x, Y: y, Labeled: labeled, Kernel: "epanechnikov", Bandwidth: 3.5})
	if rec := post("/v1/models/m", plainFit); rec.Code != http.StatusOK {
		f.Fatalf("plain fit: %d %s", rec.Code, rec.Body)
	}
	sx, sy, slabeled := streamData(41, 64, 16)
	streamFitBody := mustJSON(fitRequest{X: sx, Y: sy, Labeled: slabeled, Kernel: "epanechnikov", Bandwidth: 0.35, Stream: true})
	if rec := post("/v1/models/s", streamFitBody); rec.Code != http.StatusOK {
		f.Fatalf("stream fit: %d %s", rec.Code, rec.Body)
	}

	for _, seed := range handlerSeeds {
		f.Add(seed.route, []byte(seed.body))
	}

	f.Fuzz(func(t *testing.T, route byte, body []byte) {
		r := int(route) % len(fuzzRoutes)
		rec := post(fuzzRoutes[r], body)
		code := rec.Code
		if code < 200 || code >= 300 {
			var he httpError
			if code < 400 || code >= 500 || json.Unmarshal(rec.Body.Bytes(), &he) != nil || he.Error == "" {
				t.Fatalf("%s %q: status %d, body %s", fuzzRoutes[r], body, code, rec.Body)
			}
			return
		}
		if r != routePredict || code != http.StatusOK {
			return
		}
		var req predictRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("predict %q answered 200, but the body does not decode: %v", body, err)
		}
		var resp predictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("predict %q: response %s: %v", body, rec.Body, err)
		}
		n := len(req.Points)
		if len(resp.Scores) != n || (resp.Errors != nil && len(resp.Errors) != n) {
			t.Fatalf("predict %q: %d points, %d scores, %d errors", body, n, len(resp.Scores), len(resp.Errors))
		}
	})
}
