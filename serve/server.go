package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	graphssl "repro"
	"repro/internal/kernel"
)

// Config tunes a Server. The zero value selects the defaults noted on each
// field.
type Config struct {
	// QueueDepth bounds the uncached points under evaluation across all
	// predict requests; a request that would exceed it gets 429 (default
	// 1024).
	QueueDepth int
	// Workers bounds predict-evaluation parallelism (default 1; <= 0
	// selects GOMAXPROCS). Worker count never changes results.
	Workers int
	// FitTimeout bounds one fit request (default 120s).
	FitTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 64 MiB).
	MaxBodyBytes int64
	// MaxPoints bounds the points in one predict request (default 4096).
	MaxPoints int
	// CacheSize bounds the version-keyed prediction cache, in entries
	// (default 8192; negative disables caching). A registry hot-swap bumps
	// the model version, which invalidates its cached predictions
	// implicitly.
	CacheSize int
	// ModelBudget bounds the uncached points one model may have in flight;
	// requests beyond it get 429 (default 0 = unlimited).
	ModelBudget int
	// IngestQueue bounds the in-flight (admitted but not yet applied)
	// points per streaming model; ingest requests beyond it get 429
	// (default 4096). The model's worker publishes everything queued as
	// one delta, so it also bounds one roll-forward.
	IngestQueue int
}

func (c *Config) fillDefaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.FitTimeout <= 0 {
		c.FitTimeout = 120 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxPoints <= 0 {
		c.MaxPoints = 4096
	}
	if c.CacheSize == 0 {
		c.CacheSize = 8192
	}
	if c.IngestQueue <= 0 {
		c.IngestQueue = 4096
	}
}

// Server is the HTTP serving layer: a model registry behind a JSON API with
// cached prediction, admission control, and a drain switch for graceful
// shutdown. Create with NewServer, mount Handler on an http.Server, and on
// shutdown call BeginDrain, then http.Server.Shutdown, then Close.
type Server struct {
	cfg      Config
	registry *Registry
	cache    *predCache
	inflight atomic.Int64 // uncached points under evaluation, capped at cfg.QueueDepth
	budgets  sync.Map     // model name -> *atomic.Int64 in-flight uncached points
	ingests  sync.Map     // model name -> *ingestState for streaming models
	// publishMu orders a name's registry publication with its ingest
	// registration: fit, delete and ingest admission each hold it across
	// both, so the served entry and ingests never disagree.
	publishMu sync.Mutex
	draining  atomic.Bool
	mux       *http.ServeMux
}

// NewServer builds a server around an empty registry.
func NewServer(cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{cfg: cfg, registry: &Registry{}, cache: newPredCache(cfg.CacheSize)}
	liveServers.Store(s, struct{}{})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("POST /v1/models/{name}", s.handleFit)
	mux.HandleFunc("GET /v1/models", s.handleList)
	mux.HandleFunc("GET /v1/models/{name}", s.handleGet)
	mux.HandleFunc("DELETE /v1/models/{name}", s.handleDelete)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux = mux
	return s
}

// Registry exposes the server's model registry (for in-process publication,
// e.g. pre-loading a model before listening).
func (s *Server) Registry() *Registry { return s.registry }

// Handler returns the HTTP handler to mount.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain flips readiness to 503 and rejects new fits, while predictions
// keep flowing so a load balancer can cut traffic over without dropping
// in-flight work. Call before http.Server.Shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close drains and stops every ingest worker, waiting for its admitted
// points. Call after http.Server.Shutdown has returned (no handlers in
// flight).
func (s *Server) Close() {
	s.BeginDrain()
	s.closeIngests()
	liveServers.Delete(s)
}

// httpError is the JSON error envelope.
type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// fail maps a serving error to its HTTP status and writes the envelope.
func fail(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrIsolated), errors.Is(err, graphssl.ErrIsolated):
		code = http.StatusUnprocessableEntity
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		code = http.StatusTooManyRequests
		countRejected()
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	}
	if code != http.StatusTooManyRequests {
		countError()
	}
	writeJSON(w, code, httpError{Error: err.Error()})
}

// predictRequest is the body of POST /v1/predict.
type predictRequest struct {
	Model  string      `json:"model"`
	Points [][]float64 `json:"points"`
}

// predictResponse answers a predict request. Errors, when present, aligns
// with Points; empty strings mark successes. ResidualBound, when present,
// is the largest top-m truncation residual-mass bound over the request's
// points: the fraction of total kernel mass the truncation could have
// dropped (0 = every prediction exact; see Info.Pruning).
type predictResponse struct {
	Model         string    `json:"model"`
	Version       int64     `json:"version"`
	Scores        []float64 `json:"scores"`
	ResidualBound float64   `json:"residual_bound,omitempty"`
	Errors        []string  `json:"errors,omitempty"`
}

// reqScratch pools one predict request's working buffers — the decoded
// body and the cache-scatter and miss-compaction state — so the warm
// request path does not grow the heap per call. The points are rows of
// dec's backing until release; the cache copies what it keeps. req lives
// here because decoding through an interface would move it to the heap.
type reqScratch struct {
	dec     bodyDecoder
	req     predictRequest
	scores  []float64
	bounds  []float64
	st      []pointStatus
	missPts [][]float64
	missIdx []int
	mdst    []float64
	mbounds []float64
	mst     []pointStatus
}

var reqPool = sync.Pool{New: func() any { return new(reqScratch) }}

func (sc *reqScratch) size(n int) {
	if cap(sc.scores) < n {
		sc.scores = make([]float64, n)
		sc.bounds = make([]float64, n)
		sc.st = make([]pointStatus, n)
		sc.missPts = make([][]float64, 0, n)
		sc.missIdx = make([]int, 0, n)
		sc.mdst = make([]float64, n)
		sc.mbounds = make([]float64, n)
		sc.mst = make([]pointStatus, n)
	}
}

func (sc *reqScratch) release() {
	// Query points belong to the request; drop the references.
	for i := range sc.missPts {
		sc.missPts[i] = nil
	}
	sc.missPts = sc.missPts[:0]
	sc.req = predictRequest{}
	// Drop a decoder grown by an outsized body rather than pin it in the pool.
	if sc.dec.body.Cap() > 1<<20 {
		sc.dec = bodyDecoder{}
	}
	reqPool.Put(sc)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sc := reqPool.Get().(*reqScratch)
	defer sc.release()
	req := &sc.req
	if err := s.decodeBody(w, r, &sc.dec, req, ErrPoint); err != nil {
		fail(w, err)
		return
	}
	n := len(req.Points)
	if n == 0 {
		fail(w, fmt.Errorf("serve: no points: %w", ErrPoint))
		return
	}
	if n > s.cfg.MaxPoints {
		fail(w, fmt.Errorf("serve: %d points exceeds the per-request limit %d: %w", n, s.cfg.MaxPoints, ErrPoint))
		return
	}
	e, err := s.registry.Load(req.Model)
	if err != nil {
		fail(w, err)
		return
	}
	sc.size(n)
	scores, bounds, st := sc.scores[:n], sc.bounds[:n], sc.st[:n]
	sc.missPts, sc.missIdx = sc.missPts[:0], sc.missIdx[:0]
	for i, pt := range req.Points {
		if v, b, cst, ok := s.cache.get(e.Name, e.Version, pt); ok {
			scores[i], bounds[i], st[i] = v, b, cst
		} else {
			sc.missPts = append(sc.missPts, pt)
			sc.missIdx = append(sc.missIdx, i)
		}
	}
	misses := len(sc.missPts)
	countCache(n-misses, misses)

	if misses > 0 {
		// Admission control gates only uncached work: a full cache hit costs
		// nothing worth shedding.
		if s.cfg.ModelBudget > 0 {
			ctr := s.modelCounter(e.Name)
			if ctr.Add(int64(misses)) > int64(s.cfg.ModelBudget) {
				ctr.Add(-int64(misses))
				countShedBudget()
				fail(w, fmt.Errorf("serve: model %q exceeds its in-flight budget of %d points: %w", e.Name, s.cfg.ModelBudget, ErrOverloaded))
				return
			}
			defer ctr.Add(-int64(misses))
		}
		if err := s.predictMisses(e, sc); err != nil {
			fail(w, err)
			return
		}
	}

	resp := predictResponse{Model: e.Name, Version: e.Version, Scores: scores}
	for i, ps := range st {
		if ps != psOK {
			if resp.Errors == nil {
				resp.Errors = make([]string, n)
			}
			resp.Errors[i] = ps.err().Error()
		}
		if bounds[i] > resp.ResidualBound {
			resp.ResidualBound = bounds[i]
		}
	}
	countRequest(n, time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}

// predictMisses evaluates a request's uncached points (sc.missPts, at
// response positions sc.missIdx) inline on the handler goroutine through
// the model's tiled batch kernel, then scatters the results into the
// response buffers and the cache. Admission is bounded in points, not
// requests: work that would lift the server's uncached points under
// evaluation past QueueDepth is refused with ErrOverloaded without
// blocking, so latency stays bounded under overload. The warm path
// allocates nothing; CI gates it with testing.AllocsPerRun.
func (s *Server) predictMisses(e *Entry, sc *reqScratch) error {
	k := len(sc.missPts)
	if !s.admit(int64(k)) {
		return fmt.Errorf("serve: %d uncached points would exceed the in-flight limit of %d: %w", k, s.cfg.QueueDepth, ErrOverloaded)
	}
	mdst, mbounds, mst := sc.mdst[:k], sc.mbounds[:k], sc.mst[:k]
	e.Model.predictInto(mdst, mst, mbounds, sc.missPts, s.cfg.Workers)
	s.inflight.Add(-int64(k))
	for j, i := range sc.missIdx {
		sc.scores[i], sc.bounds[i], sc.st[i] = mdst[j], mbounds[j], mst[j]
		// Bad points are request-shaped, not model-shaped; don't cache
		// them.
		if mst[j] != psBadPoint {
			s.cache.put(e.Name, e.Version, sc.missPts[j], mdst[j], mbounds[j], mst[j])
		}
	}
	return nil
}

// admit reserves n points of the QueueDepth budget, failing without
// blocking when it is exhausted.
func (s *Server) admit(n int64) bool {
	for {
		cur := s.inflight.Load()
		if cur+n > int64(s.cfg.QueueDepth) {
			return false
		}
		if s.inflight.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// modelCounter returns the in-flight point counter for a model name,
// creating it on first use.
func (s *Server) modelCounter(name string) *atomic.Int64 {
	if c, ok := s.budgets.Load(name); ok {
		return c.(*atomic.Int64)
	}
	c, _ := s.budgets.LoadOrStore(name, new(atomic.Int64))
	return c.(*atomic.Int64)
}

// fitRequest is the body of POST /v1/models/{name}: training data plus the
// fit hyperparameters. Zero values select the library defaults (Gaussian
// kernel, median-heuristic bandwidth, dense graph, hard criterion).
type fitRequest struct {
	X       [][]float64 `json:"x"`
	Y       []float64   `json:"y"`
	Labeled []int       `json:"labeled,omitempty"`
	Kernel  string      `json:"kernel,omitempty"`
	// Bandwidth > 0 fixes h; 0 (or absent) uses the library default, the
	// median heuristic; a negative value is rejected.
	Bandwidth float64  `json:"bandwidth,omitempty"`
	KNN       int      `json:"knn,omitempty"`
	Lambda    *float64 `json:"lambda,omitempty"`
	// AnchorSet is "labeled" (default) or "all".
	AnchorSet string `json:"anchor_set,omitempty"`
	// TopM > 0 serves the model with top-m anchor truncation; responses
	// then carry residual_bound. Incompatible with KNN > 0.
	TopM int `json:"top_m,omitempty"`
	// Stream lets POST /v1/ingest append labeled points to the served
	// model, each as one more anchor. Requires an explicit
	// compact-support kernel, a fixed bandwidth, the hard criterion
	// (lambda 0), labeled anchors, and no knn/top_m truncation: the
	// models whose anchors are their responses, which a new label
	// extends without a solve.
	Stream bool `json:"stream,omitempty"`
}

// fitResponse answers a fit request.
type fitResponse struct {
	Model   string  `json:"model"`
	Version int64   `json:"version"`
	Info    Info    `json:"info"`
	Seconds float64 `json:"seconds"`
}

func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	resp, err := s.fit(w, r)
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// fit runs POST /v1/models/{name}: decode, fit, snapshot, model build,
// registry publication and, for "stream": true fits, ingest registration.
// Seconds in the response times everything from the fit on.
func (s *Server) fit(w http.ResponseWriter, r *http.Request) (fitResponse, error) {
	if s.draining.Load() {
		return fitResponse{}, ErrDraining
	}
	name := r.PathValue("name")
	if !validName(name) {
		return fitResponse{}, fmt.Errorf("serve: model name %q: %w", name, ErrName)
	}
	var req fitRequest
	if err := s.decodeBody(w, r, new(bodyDecoder), &req, ErrFitRequest); err != nil {
		return fitResponse{}, err
	}
	start := time.Now()
	m, err := s.buildModel(r.Context(), &req)
	if err != nil {
		return fitResponse{}, err
	}
	e, err := s.publish(name, m, req.Stream)
	if err != nil {
		return fitResponse{}, err
	}
	return fitResponse{
		Model:   e.Name,
		Version: e.Version,
		Info:    m.Info(),
		Seconds: time.Since(start).Seconds(),
	}, nil
}

// publish stores a fitted model under name and, under the same hold of
// publishMu, registers an ingest state for a streaming model or retires
// the name's previous one. The state registers only after the initial
// publication, so its worker can never race the first Store.
func (s *Server) publish(name string, m *Model, stream bool) (*Entry, error) {
	s.publishMu.Lock()
	defer s.publishMu.Unlock()
	e, err := s.registry.Store(name, m)
	if err != nil {
		return nil, err
	}
	setModelVersion(e.Name, e.Version)
	if stream {
		s.registerIngest(e)
	} else {
		s.dropIngest(e.Name)
	}
	return e, nil
}

// buildModel validates a fit request, builds its snapshot and the
// inductive model, all under FitTimeout. A fit whose graph leaves an
// unlabeled component without a label fails with graphssl.ErrIsolated
// (422); any other fit failure is a bad request (ErrFitRequest, 400).
func (s *Server) buildModel(ctx context.Context, req *fitRequest) (*Model, error) {
	var anchorSet AnchorSet
	switch req.AnchorSet {
	case "", "labeled":
		anchorSet = AnchorLabeled
	case "all":
		anchorSet = AnchorAll
	default:
		return nil, fmt.Errorf("serve: anchor_set %q (want \"labeled\" or \"all\"): %w", req.AnchorSet, ErrFitRequest)
	}
	opts, kind, err := fitOptions(req, s.cfg.Workers)
	if err != nil {
		return nil, err
	}
	if req.Stream {
		if err := checkStreamFit(req, kind, anchorSet); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithTimeout(ctx, s.cfg.FitTimeout)
	defer cancel()
	opts = append(opts, graphssl.WithContext(ctx))
	snap, err := requestSnapshot(req, anchorSet, opts)
	if err != nil {
		if ctx.Err() != nil {
			return nil, context.DeadlineExceeded
		}
		if errors.Is(err, graphssl.ErrIsolated) {
			return nil, fmt.Errorf("serve: fit: %w", err)
		}
		return nil, fmt.Errorf("serve: fit: %v: %w", err, ErrFitRequest)
	}
	mopts := []ModelOption{WithAnchorSet(anchorSet), WithWorkers(s.cfg.Workers)}
	if req.TopM > 0 {
		mopts = append(mopts, WithTopM(req.TopM))
	}
	return NewModel(snap, mopts...)
}

// fitOptions maps a fit request's hyperparameters (kernel, bandwidth, kNN,
// λ) to library options on workers, without a context. It also returns the
// parsed kernel, zero when the request names none.
func fitOptions(req *fitRequest, workers int) ([]graphssl.Option, kernel.Kind, error) {
	opts := []graphssl.Option{graphssl.WithWorkers(workers)}
	var kind kernel.Kind
	if req.Kernel != "" {
		var err error
		if kind, err = kernel.Parse(req.Kernel); err != nil {
			return nil, 0, fmt.Errorf("serve: %v: %w", err, ErrFitRequest)
		}
		opts = append(opts, graphssl.WithKernel(kind))
	}
	if req.Bandwidth != 0 {
		opts = append(opts, graphssl.WithBandwidth(req.Bandwidth))
	}
	if req.KNN != 0 {
		opts = append(opts, graphssl.WithKNN(req.KNN))
	}
	if req.Lambda != nil {
		opts = append(opts, graphssl.WithLambda(*req.Lambda))
	}
	return opts, kind, nil
}

// requestSnapshot builds the snapshot a fit request serves. A labeled-anchor
// model under the hard criterion reads only the labeled scores, which Eq. 5
// fixes to the responses, so it takes graphssl.HardSnapshot and no solve;
// every other model takes graphssl.Fit and Result.Snapshot.
func requestSnapshot(req *fitRequest, anchorSet AnchorSet, opts []graphssl.Option) (*graphssl.ModelSnapshot, error) {
	if anchorSet == AnchorLabeled && (req.Lambda == nil || *req.Lambda == 0) {
		return graphssl.HardSnapshot(req.X, req.Y, req.Labeled, opts...)
	}
	res, err := graphssl.Fit(req.X, req.Y, req.Labeled, opts...)
	if err != nil {
		return nil, err
	}
	return res.Snapshot(req.X, req.Y)
}

// checkStreamFit checks a "stream": true request, whose kernel parsed as
// kind, against the streaming contract: a model whose every anchor is a
// response, so that Model.ApplyDelta can append each ingested label.
func checkStreamFit(req *fitRequest, kind kernel.Kind, anchorSet AnchorSet) error {
	switch {
	case anchorSet != AnchorLabeled:
		return fmt.Errorf("serve: streaming fits require labeled anchors: %w", ErrFitRequest)
	case req.TopM > 0 || req.KNN != 0:
		return fmt.Errorf("serve: streaming fits take no knn or top_m truncation: %w", ErrFitRequest)
	case req.Lambda != nil && *req.Lambda != 0:
		return fmt.Errorf("serve: streaming fits require the hard criterion (lambda 0): %w", ErrFitRequest)
	case req.Bandwidth <= 0:
		return fmt.Errorf("serve: streaming fits require a fixed bandwidth: %w", ErrFitRequest)
	case req.Kernel == "" || !kind.CompactSupport():
		return fmt.Errorf("serve: streaming fits require an explicit compact-support kernel: %w", ErrFitRequest)
	}
	return nil
}

// modelEntry lists one registry entry.
type modelEntry struct {
	Model   string `json:"model"`
	Version int64  `json:"version"`
	Info    Info   `json:"info"`
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	entries := s.registry.Entries()
	out := make([]modelEntry, len(entries))
	for i, e := range entries {
		out[i] = modelEntry{Model: e.Name, Version: e.Version, Info: e.Model.Info()}
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": out})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	e, err := s.registry.Load(r.PathValue("name"))
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, modelEntry{Model: e.Name, Version: e.Version, Info: e.Model.Info()})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.publishMu.Lock()
	err := s.registry.Delete(name)
	if err == nil {
		clearModelVersion(name)
		s.dropIngest(name)
	}
	s.publishMu.Unlock()
	if err != nil {
		fail(w, err)
		return
	}
	// Drop the budget counter; in-flight requests holding it keep their
	// reference and still release correctly. Cached predictions need no
	// purge: Registry versions are monotonic across Delete, so a refit under
	// this name gets a fresh version and the dead entries can never match.
	s.budgets.Delete(name)
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "models": s.registry.Len()})
}
