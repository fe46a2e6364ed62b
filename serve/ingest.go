package serve

import (
	"expvar"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	graphssl "repro"
)

// Streaming ingest: a model fitted with "stream": true takes labeled
// points through POST /v1/ingest. Such a model is hard-criterion and
// anchored on its labeled points, whose fitted scores are the responses
// themselves (Eq. 5), so a new labeled point needs no solve: it is one
// more anchor. A single background worker per model drains everything
// queued, joins it in arrival order into one snapshot delta and rolls the
// served model forward with Model.ApplyDelta. Every roll-forward goes
// through the registry, so the version bumps and cached predictions of
// the old model can never be confused with the new one. A worker
// publishes only onto the entry it owns: a refit or delete of the name
// supersedes its state, which then publishes nothing and drops its queue.
// The stream package keeps the transductive scores of such a model fresh
// for library callers; no response of the server reads them.

// Ingest metrics, alongside the serving counters in metrics.go.
var (
	ingPoints    = expvar.NewInt("graphssl.serve.ingest.points_total")
	ingRejected  = expvar.NewInt("graphssl.serve.ingest.rejected_total")
	ingErrors    = expvar.NewInt("graphssl.serve.ingest.errors_total")
	ingDeltaRoll = expvar.NewInt("graphssl.serve.ingest.delta_rollforwards")

	stalenessWin latencyRing
)

func init() {
	expvar.Publish("graphssl.serve.ingest.staleness_us", expvar.Func(func() any {
		p50, p99 := stalenessWin.quantiles()
		return map[string]float64{"p50": p50, "p99": p99}
	}))
}

// ingestJob is one admitted ingest request: points with aligned
// responses, stamped on arrival so the worker can measure
// label-to-servable staleness.
type ingestJob struct {
	pts     [][]float64
	y       []float64
	arrival time.Time
}

// ingestState is the mutable half of a streaming model: the registry
// version of the entry it publishes onto, the bounded queue, and the
// in-flight point count that backs admission control.
type ingestState struct {
	name    string
	version int64 // owned entry's version; advanced by each publish (worker-owned)
	ch      chan ingestJob
	pending atomic.Int64 // points admitted but not yet applied
	stop    chan struct{}
	done    chan struct{}
	closed  atomic.Bool
}

// newIngestState builds the state of the streaming model just published
// as e.
func newIngestState(e *Entry, queue int) *ingestState {
	return &ingestState{
		name:    e.Name,
		version: e.Version,
		ch:      make(chan ingestJob, queue),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// close stops the worker; safe to call more than once. Does not wait.
func (st *ingestState) close() {
	if st.closed.CompareAndSwap(false, true) {
		close(st.stop)
	}
}

// ingestStateFor returns the ingest state of a streaming model, nil for
// batch-fitted models.
func (s *Server) ingestStateFor(name string) *ingestState {
	if v, ok := s.ingests.Load(name); ok {
		return v.(*ingestState)
	}
	return nil
}

// registerIngest installs the state for the streaming model just
// published as e, stopping any predecessor's worker, and starts the new
// worker.
func (s *Server) registerIngest(e *Entry) {
	st := newIngestState(e, s.cfg.IngestQueue)
	if old, ok := s.ingests.Load(st.name); ok {
		old.(*ingestState).close()
	}
	s.ingests.Store(st.name, st)
	go s.runIngest(st)
}

// dropIngest stops and removes a model's ingest state, if any.
func (s *Server) dropIngest(name string) {
	if v, ok := s.ingests.LoadAndDelete(name); ok {
		v.(*ingestState).close()
	}
}

// closeIngests stops every ingest worker and waits for them to exit.
func (s *Server) closeIngests() {
	var states []*ingestState
	s.ingests.Range(func(_, v any) bool {
		states = append(states, v.(*ingestState))
		return true
	})
	for _, st := range states {
		st.close()
	}
	for _, st := range states {
		<-st.done
	}
}

// runIngest is the per-model worker: block for work, take everything
// queued (admission bounds it by IngestQueue points) and publish it as one
// delta. Once stopped, a worker whose state still owns its entry applies
// everything queued before it exits, so Close loses no admitted point; a
// superseded worker drops its queue.
func (s *Server) runIngest(st *ingestState) {
	defer close(st.done)
	var jobs []ingestJob
	for {
		jobs = jobs[:0]
		select {
		case j := <-st.ch:
			jobs = append(jobs, j)
		case <-st.stop:
		}
		// This goroutine is the only receiver, so a non-empty queue
		// never blocks the receive.
		for len(st.ch) > 0 {
			jobs = append(jobs, <-st.ch)
		}
		if st.closed.Load() {
			if _, err := s.ownedEntry(st); err != nil || len(jobs) == 0 {
				return
			}
		}
		s.applyIngest(st, jobs)
	}
}

// applyIngest joins jobs, in arrival order, into one snapshot delta,
// rolls the owned entry forward by it and records each job's
// label-to-servable staleness. Admission has checked every point against
// the served model, so a failure here (a superseded state, a rejected
// delta) is counted and the batch dropped.
func (s *Server) applyIngest(st *ingestState, jobs []ingestJob) {
	d := new(graphssl.SnapshotDelta)
	for _, j := range jobs {
		d.X = append(d.X, j.pts...)
		d.Y = append(d.Y, j.y...)
	}
	defer st.pending.Add(-int64(d.Len()))
	e, err := s.ownedEntry(st)
	if err == nil {
		var m *Model
		if m, err = e.Model.ApplyDelta(d); err == nil {
			err = s.publishOwned(st, m)
		}
	}
	if err != nil {
		ingErrors.Add(1)
		return
	}
	ingPoints.Add(int64(d.Len()))
	ingDeltaRoll.Add(1)
	now := time.Now()
	for _, j := range jobs {
		stalenessWin.observe(float64(now.Sub(j.arrival).Microseconds()))
	}
}

// ownedEntry returns the registry entry st publishes onto, or
// ErrNotFound once a delete or refit of the name has superseded st.
func (s *Server) ownedEntry(st *ingestState) (*Entry, error) {
	e, err := s.registry.Load(st.name)
	if err == nil && e.Version != st.version {
		err = fmt.Errorf("serve: model %q at version %d: %w", st.name, st.version, ErrNotFound)
	}
	return e, err
}

// publishOwned stores m over the entry st owns and moves st's ownership
// to the new version.
func (s *Server) publishOwned(st *ingestState, m *Model) error {
	e, err := s.registry.storeIf(st.name, st.version, m)
	if err != nil {
		return err
	}
	st.version = e.Version
	setModelVersion(e.Name, e.Version)
	return nil
}

// ingestRequest is the body of POST /v1/ingest. Y aligns with Points and
// labels every point: each becomes an anchor of the served model. A
// request without Y is refused, as an unlabeled point would change no
// served prediction.
type ingestRequest struct {
	Model  string      `json:"model"`
	Points [][]float64 `json:"points"`
	Y      []float64   `json:"y,omitempty"`
}

// ingestResponse acknowledges enqueued work. Pending counts points
// admitted but not yet applied, across all requests for the model.
type ingestResponse struct {
	Model    string `json:"model"`
	Accepted int    `json:"accepted"`
	Pending  int64  `json:"pending"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		fail(w, ErrDraining)
		return
	}
	// A fresh decoder: the queued job reads the points after we return.
	var req ingestRequest
	if err := s.decodeBody(w, r, new(bodyDecoder), &req, ErrPoint); err != nil {
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
	if req.Y != nil && len(req.Y) != n {
		fail(w, fmt.Errorf("serve: %d responses for %d points: %w", len(req.Y), n, ErrPoint))
		return
	}
	st, err := s.admitIngest(req.Model, ingestJob{pts: req.Points, y: req.Y, arrival: time.Now()})
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, ingestResponse{
		Model:    req.Model,
		Accepted: n,
		Pending:  st.pending.Load(),
	})
}

// admitIngest enqueues job onto the ingest state of the streaming model
// name. It holds publishMu across the lookup and the non-blocking
// enqueue, so a job is never queued onto a state that a concurrent refit
// or delete has already retired. A job the served model could not append
// (no responses, or a point of the wrong dimension) is refused here, so
// that it cannot fail the delta of the batch it would join.
func (s *Server) admitIngest(name string, job ingestJob) (*ingestState, error) {
	s.publishMu.Lock()
	defer s.publishMu.Unlock()
	e, err := s.registry.Load(name)
	if err != nil {
		return nil, err
	}
	st := s.ingestStateFor(name)
	if st == nil {
		return nil, fmt.Errorf("serve: model %q was not fitted with \"stream\": true: %w", name, ErrPoint)
	}
	if job.y == nil {
		return nil, fmt.Errorf("serve: ingest without responses: streaming models append labeled points only: %w", ErrPoint)
	}
	for i, p := range job.pts {
		if len(p) != e.Model.Dim() {
			return nil, fmt.Errorf("serve: point %d has dim %d, model %q takes %d: %w", i, len(p), name, e.Model.Dim(), ErrPoint)
		}
	}
	// Backpressure: admission is bounded in points, not requests, so a
	// burst of large bodies cannot grow the in-flight state without
	// limit.
	n := int64(len(job.pts))
	if st.pending.Add(n) > int64(s.cfg.IngestQueue) {
		st.pending.Add(-n)
		ingRejected.Add(n)
		return nil, fmt.Errorf("serve: ingest queue for %q is full: %w", name, ErrOverloaded)
	}
	select {
	case st.ch <- job:
		return st, nil
	default:
		st.pending.Add(-n)
		ingRejected.Add(n)
		return nil, fmt.Errorf("serve: ingest queue for %q is full: %w", name, ErrOverloaded)
	}
}
