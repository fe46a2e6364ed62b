package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	graphssl "repro"
)

// testServer boots a server over httptest, closing the listener (handlers
// first) and then the server when the test ends.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, url, buf)
}

func postRaw(t *testing.T, url string, buf []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// fitOverHTTP publishes a model via the API and returns the fit response.
func fitOverHTTP(t *testing.T, base, name string, x [][]float64, y []float64, labeled []int, h float64) fitResponse {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/models/"+name, fitRequest{
		X: x, Y: y, Labeled: labeled, Bandwidth: h,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fit: %d %s", resp.StatusCode, body)
	}
	var fr fitResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	return fr
}

// TestServerFitPredictE2E drives the full loop: fit over HTTP, predict
// in-sample points, and check the scores are bitwise-identical to the
// NadarayaWatson baseline computed in-process.
func TestServerFitPredictE2E(t *testing.T) {
	_, ts := testServer(t, Config{})
	x, y, labeled := testData(31, 120, 5, 40)
	const h = 1.4

	fr := fitOverHTTP(t, ts.URL, "demo", x, y, labeled, h)
	if fr.Version != 1 || fr.Info.Dim != 5 || fr.Info.Anchors != 40 || fr.Info.Kernel != "gaussian" {
		t.Fatalf("fit response: %+v", fr)
	}

	want, unl, err := graphssl.NadarayaWatson(x, y, labeled, graphssl.WithBandwidth(h))
	if err != nil {
		t.Fatal(err)
	}
	qs := make([][]float64, len(unl))
	for i, u := range unl {
		qs[i] = x[u]
	}
	resp, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "demo", Points: qs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d %s", resp.StatusCode, body)
	}
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Model != "demo" || pr.Version != 1 || pr.Errors != nil {
		t.Fatalf("predict response: %+v", pr)
	}
	for i := range want {
		if math.Float64bits(pr.Scores[i]) != math.Float64bits(want[i]) {
			t.Fatalf("point %d: served %v != baseline %v", unl[i], pr.Scores[i], want[i])
		}
	}

	// The same query in a non-canonical body — mixed-case keys, extra
	// whitespace, an escaped model name — decodes through encoding/json
	// and must score the same bits.
	raw := []byte("{ \"Model\" : \"d\\u0065mo\" ,\n\t\"POINTS\" : [ ")
	for i, q := range qs {
		if i > 0 {
			raw = append(raw, " ,\n"...)
		}
		raw = appendFloats(raw, q)
	}
	raw = append(raw, " ] }"...)
	resp, body = postRaw(t, ts.URL+"/v1/predict", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("non-canonical predict: %d %s", resp.StatusCode, body)
	}
	var pr2 predictResponse
	if err := json.Unmarshal(body, &pr2); err != nil {
		t.Fatal(err)
	}
	for i := range pr.Scores {
		if math.Float64bits(pr2.Scores[i]) != math.Float64bits(pr.Scores[i]) {
			t.Fatalf("point %d: non-canonical body scored %v, canonical %v", unl[i], pr2.Scores[i], pr.Scores[i])
		}
	}

	// Refit bumps the version atomically.
	if fr2 := fitOverHTTP(t, ts.URL, "demo", x, y, labeled, h); fr2.Version != 2 {
		t.Fatalf("refit version = %d", fr2.Version)
	}

	// Listing and single-model lookup.
	resp, body = getJSON(t, ts.URL+"/v1/models")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"demo"`)) {
		t.Fatalf("list: %d %s", resp.StatusCode, body)
	}
	resp, _ = getJSON(t, ts.URL+"/v1/models/demo")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: %d", resp.StatusCode)
	}

	// Delete, then predict must 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/demo", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", dresp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "demo", Points: qs[:1]})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("predict after delete: %d", resp.StatusCode)
	}
}

// TestServerFitOversizedKNN posts a kNN far above the point count: the fit
// must succeed (it once exhausted memory and killed the process) and the
// server must keep serving.
func TestServerFitOversizedKNN(t *testing.T) {
	_, ts := testServer(t, Config{})
	x, y, labeled := testData(43, 600, 2, 60)
	resp, body := postJSON(t, ts.URL+"/v1/models/m", fitRequest{
		X: x, Y: y, Labeled: labeled, Bandwidth: 1, KNN: 1 << 40,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fit: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "m", Points: x[:3]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after fit: %d %s", resp.StatusCode, body)
	}
}

// TestServerFitTimeout: FitTimeout bounds every fit, a "stream": true one
// included; past the deadline both answer 504 and publish nothing.
func TestServerFitTimeout(t *testing.T) {
	srv, ts := testServer(t, Config{Workers: 1, FitTimeout: time.Nanosecond})
	x, y, labeled := streamData(43, 64, 16)
	for name, req := range map[string]fitRequest{
		"plain":  {X: x, Y: y, Labeled: labeled, Bandwidth: 0.35},
		"stream": {X: x, Y: y, Labeled: labeled, Kernel: "epanechnikov", Bandwidth: 0.35, Stream: true},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/models/"+name, req)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("%s fit: %d %s", name, resp.StatusCode, body)
		}
		if _, err := srv.registry.Load(name); err == nil || srv.ingestStateFor(name) != nil {
			t.Fatalf("%s fit past its deadline was published", name)
		}
	}
}

// TestServerErrorMapping checks every HTTP error translation.
func TestServerErrorMapping(t *testing.T) {
	_, ts := testServer(t, Config{MaxPoints: 4, MaxBodyBytes: 1 << 16})
	x, y, labeled := testData(37, 60, 3, 20)
	// Compact kernel so isolation is reachable.
	resp, body := postJSON(t, ts.URL+"/v1/models/m", fitRequest{
		X: x, Y: y, Labeled: labeled, Kernel: "epanechnikov", Bandwidth: 3.5,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fit: %d %s", resp.StatusCode, body)
	}

	cases := []struct {
		name string
		do   func() *http.Response
		code int
	}{
		{"bad-json", func() *http.Response {
			r, _ := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader([]byte("{")))
			return r
		}, http.StatusBadRequest},
		{"unknown-field", func() *http.Response {
			r, _ := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader([]byte(`{"nope":1}`)))
			return r
		}, http.StatusBadRequest},
		{"no-points", func() *http.Response {
			r, _ := postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "m"})
			return r
		}, http.StatusBadRequest},
		{"too-many-points", func() *http.Response {
			r, _ := postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "m", Points: make([][]float64, 5)})
			return r
		}, http.StatusBadRequest},
		{"unknown-model", func() *http.Response {
			r, _ := postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "ghost", Points: [][]float64{{0, 0, 0}}})
			return r
		}, http.StatusNotFound},
		{"bad-model-name", func() *http.Response {
			r, _ := postJSON(t, ts.URL+"/v1/models/bad%20name", fitRequest{X: x, Y: y, Labeled: labeled})
			return r
		}, http.StatusBadRequest},
		{"bad-kernel", func() *http.Response {
			r, _ := postJSON(t, ts.URL+"/v1/models/k", fitRequest{X: x, Y: y, Labeled: labeled, Kernel: "nope"})
			return r
		}, http.StatusBadRequest},
		{"bad-anchor-set", func() *http.Response {
			r, _ := postJSON(t, ts.URL+"/v1/models/k", fitRequest{X: x, Y: y, Labeled: labeled, AnchorSet: "some"})
			return r
		}, http.StatusBadRequest},
		{"bad-fit-data", func() *http.Response {
			r, _ := postJSON(t, ts.URL+"/v1/models/k", fitRequest{X: x, Y: y, Labeled: []int{0, 0}})
			return r
		}, http.StatusBadRequest},
		{"get-missing", func() *http.Response {
			r, _ := getJSON(t, ts.URL+"/v1/models/ghost")
			return r
		}, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := tc.do()
			if resp == nil {
				t.Fatal("no response")
			}
			resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.code)
			}
		})
	}

	// A fit whose graph leaves an unlabeled component without a label is a
	// 422 carrying graphssl.ErrIsolated's message under one prefix, for a
	// plain and a streaming fit alike: an Epanechnikov support below the
	// grid spacing cuts every point off.
	sx, sy, sl := streamData(43, 64, 16)
	for name, stream := range map[string]bool{"isolated-fit": false, "isolated-stream-fit": true} {
		t.Run(name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/models/iso", fitRequest{
				X: sx, Y: sy, Labeled: sl, Kernel: "epanechnikov", Bandwidth: 0.1, Stream: stream,
			})
			var he httpError
			if resp.StatusCode != http.StatusUnprocessableEntity || json.Unmarshal(body, &he) != nil ||
				!strings.Contains(he.Error, graphssl.ErrIsolated.Error()) || strings.Contains(he.Error, ErrPoint.Error()) ||
				strings.Count(he.Error, "graphssl:") != 1 {
				t.Fatalf("status %d, body %s: want 422 with one graphssl.ErrIsolated message", resp.StatusCode, body)
			}
		})
	}

	// Bodies at the edges of the decoder get a 400 with the ErrPoint
	// envelope, except data after the object, which encoding/json ignores.
	// A body over MaxBodyBytes is refused even when its object ends inside
	// the limit, because bodies are read whole.
	okBody := `{"model":"m","points":[[0.5,0.25,1]]}`
	bodies := []struct {
		name, body string
		code       int
	}{
		{"out-of-range-number", `{"model":"m","points":[[1e400,0,0]]}`, http.StatusBadRequest},
		{"leading-zero", `{"model":"m","points":[[01,0,0]]}`, http.StatusBadRequest},
		{"truncated", okBody[:len(okBody)-4], http.StatusBadRequest},
		{"over-max-body", okBody + strings.Repeat(" ", 1<<16), http.StatusBadRequest},
		{"trailing-data", okBody + `{"model":"x"}`, http.StatusOK},
	}
	for _, tc := range bodies {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postRaw(t, ts.URL+"/v1/predict", []byte(tc.body))
			if resp.StatusCode != tc.code {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.code, body)
			}
			var he httpError
			if tc.code != http.StatusOK && (json.Unmarshal(body, &he) != nil || !strings.HasSuffix(he.Error, ErrPoint.Error())) {
				t.Fatalf("error envelope %s, want one ending in %q", body, ErrPoint)
			}
		})
	}

	// Per-point failures ride a 200 with an aligned errors array.
	resp, body = postJSON(t, ts.URL+"/v1/predict", predictRequest{
		Model:  "m",
		Points: [][]float64{x[0], {500, 500, 500}, {0, 0}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed predict: %d %s", resp.StatusCode, body)
	}
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if len(pr.Errors) != 3 || pr.Errors[0] != "" || pr.Errors[1] == "" || pr.Errors[2] == "" {
		t.Fatalf("per-point errors: %+v", pr.Errors)
	}
}

// TestServerDrain checks the readiness flip and fit refusal while draining,
// with predictions still served for in-flight traffic.
func TestServerDrain(t *testing.T) {
	srv, ts := testServer(t, Config{})
	x, y, labeled := testData(41, 60, 3, 20)
	fitOverHTTP(t, ts.URL, "m", x, y, labeled, 1.2)

	resp, _ := getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %d", resp.StatusCode)
	}
	resp, _ = getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	srv.BeginDrain()
	resp, _ = getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d", resp.StatusCode)
	}
	resp, _ = getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/models/late", fitRequest{X: x, Y: y, Labeled: labeled})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fit during drain: %d", resp.StatusCode)
	}
	// In-flight prediction traffic still completes.
	resp, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "m", Points: [][]float64{x[0]}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict during drain: %d %s", resp.StatusCode, body)
	}
}

// TestServerConcurrentClients runs 64 concurrent clients against one hot
// model while it is refit mid-stream; every response must be a coherent
// version with the right scores for that version's model. Run under -race
// in CI this is the zero-downtime hot-swap acceptance check.
func TestServerConcurrentClients(t *testing.T) {
	srv, ts := testServer(t, Config{QueueDepth: 1 << 16})
	x, y, labeled := testData(43, 150, 4, 50)
	fitOverHTTP(t, ts.URL, "hot", x, y, labeled, 1.3)

	want, unl, err := graphssl.NadarayaWatson(x, y, labeled, graphssl.WithBandwidth(1.3))
	if err != nil {
		t.Fatal(err)
	}
	byPoint := map[int]float64{}
	for i, u := range unl {
		byPoint[u] = want[i]
	}

	const clients = 64
	const perClient = 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				u := unl[(c*perClient+k)%len(unl)]
				resp, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "hot", Points: [][]float64{x[u]}})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: %d %s", c, resp.StatusCode, body)
					return
				}
				var pr predictResponse
				if err := json.Unmarshal(body, &pr); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				// Same data and hyperparameters on every version, so the
				// scores are version-independent and bitwise-checkable.
				if math.Float64bits(pr.Scores[0]) != math.Float64bits(byPoint[u]) {
					t.Errorf("client %d point %d: %v != %v", c, u, pr.Scores[0], byPoint[u])
					return
				}
			}
		}(c)
	}
	// Hot-swap the model under load.
	for i := 0; i < 4; i++ {
		fitOverHTTP(t, ts.URL, "hot", x, y, labeled, 1.3)
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()

	// Metrics surface through the expvar endpoint.
	resp, body := getJSON(t, ts.URL+"/debug/vars")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/vars: %d", resp.StatusCode)
	}
	for _, key := range []string{
		"graphssl.serve.requests_total",
		"graphssl.serve.qps",
		"graphssl.serve.latency_us",
		"graphssl.serve.model_version",
		"graphssl.serve.queue_depth",
		"graphssl.serve.cache_hits",
		"graphssl.serve.cache_misses",
		"graphssl.serve.shed_budget",
		"graphssl.serve.anchors_pruned",
	} {
		if !bytes.Contains(body, []byte(fmt.Sprintf("%q", key))) {
			t.Fatalf("metric %s missing from /debug/vars", key)
		}
	}
	if srv.Registry().Len() != 1 {
		t.Fatalf("registry len = %d", srv.Registry().Len())
	}
}
