package serve

import (
	"expvar"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/stream"
)

// Streaming ingest: a model fitted with "stream": true keeps a live
// stream.Ingestor behind the served snapshot. POST /v1/ingest enqueues
// labeled (or unlabeled) points; a single background worker per model
// drains the queue in batches. A batch's new labels are published first,
// via Model.ApplyDelta, when they are purely appendable: the served
// model's labeled anchors are the responses themselves and need no
// solve. The worker then refreshes the transductive solution through the
// incremental ladder; only labels that cannot be appended wait for that
// refresh, to go out with a full snapshot republish. Every roll-forward
// goes through the registry, so the version bumps and cached predictions
// of the old model can never be confused with the new one. A worker
// publishes only onto the entry it owns: a refit or delete of the name
// supersedes its state, which then publishes nothing and drops its queue.

// Ingest metrics, alongside the serving counters in metrics.go.
var (
	ingPoints    = expvar.NewInt("graphssl.serve.ingest.points_total")
	ingRejected  = expvar.NewInt("graphssl.serve.ingest.rejected_total")
	ingErrors    = expvar.NewInt("graphssl.serve.ingest.errors_total")
	ingDeltaRoll = expvar.NewInt("graphssl.serve.ingest.delta_rollforwards")
	ingFullRoll  = expvar.NewInt("graphssl.serve.ingest.full_rollforwards")

	stalenessWin latencyRing
)

func init() {
	expvar.Publish("graphssl.serve.ingest.staleness_us", expvar.Func(func() any {
		p50, p99 := stalenessWin.quantiles()
		return map[string]float64{"p50": p50, "p99": p99}
	}))
}

// ingestJob is one enqueued ingest request: points with aligned
// responses (nil y = unlabeled), stamped on arrival so the worker can
// measure label-to-servable staleness.
type ingestJob struct {
	pts     [][]float64
	y       []float64
	arrival time.Time
}

// ingestState is the mutable half of a streaming model: the ingestor
// (owned exclusively by the worker goroutine), the registry version of
// the entry it publishes onto, the bounded queue, and the in-flight point
// count that backs admission control.
type ingestState struct {
	name    string
	version int64 // owned entry's version; advanced by each publish (worker-owned)
	ing     *stream.Ingestor
	ch      chan ingestJob
	pending atomic.Int64 // points admitted but not yet applied
	stop    chan struct{}
	done    chan struct{}
	closed  atomic.Bool

	// republish is set when labels wait for a full snapshot republish:
	// their span was not appendable, or TakeDelta moved past them and the
	// delta was not published. owed holds the arrival times of labeled
	// requests not yet served (both worker-owned).
	republish bool
	owed      []time.Time
}

// newIngestState builds the state of the streaming model just published
// as e.
func newIngestState(e *Entry, ing *stream.Ingestor, queue int) *ingestState {
	return &ingestState{
		name:    e.Name,
		version: e.Version,
		ing:     ing,
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
func (s *Server) registerIngest(e *Entry, ing *stream.Ingestor) {
	st := newIngestState(e, ing, s.cfg.IngestQueue)
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

// runIngest is the per-model worker: block for work, drain a bounded
// batch, apply and publish. Exactly one goroutine per state owns the
// ingestor, so the (deliberately unsynchronized) Ingestor never sees
// concurrent calls. Once stopped, a worker whose state still owns its
// entry applies everything queued, batch by batch, before it exits, so
// Close loses no admitted point; a superseded worker drops its queue.
func (s *Server) runIngest(st *ingestState) {
	defer close(st.done)
	jobs := make([]ingestJob, 0, s.cfg.IngestBatch)
	for {
		jobs = jobs[:0]
		npts := 0
		select {
		case j := <-st.ch:
			jobs, npts = append(jobs, j), len(j.pts)
		case <-st.stop:
		}
		// This goroutine is the only receiver, so a non-empty queue
		// never blocks the receive.
		for npts < s.cfg.IngestBatch && len(st.ch) > 0 {
			j := <-st.ch
			jobs = append(jobs, j)
			npts += len(j.pts)
		}
		if st.closed.Load() {
			if _, err := s.ownedEntry(st); err != nil || len(jobs) == 0 {
				return
			}
		}
		s.applyIngest(st, jobs)
	}
}

// applyIngest folds one batch of jobs into the ingestor and rolls the
// served model forward: insert, publish the appendable delta, refresh,
// and republish the full snapshot only if the delta could not serve the
// labels or the refresh compacted. The delta reads only label state, so
// it never waits for the solve; the full republish reads the refreshed
// problem, so it waits for a successful refresh. A compaction's republish
// (the only way renumbered ids reach the publish cursor) is not left to
// the next batch, whose refresh an isolated point could fail, holding
// back every later delta. Bad points and refresh failures (e.g. an
// isolated unlabeled point, whose edits stay pending) are counted.
func (s *Server) applyIngest(st *ingestState, jobs []ingestJob) {
	applied := 0
	for _, j := range jobs {
		for i, p := range j.pts {
			var err error
			if j.y != nil {
				_, err = st.ing.InsertLabeled(p, j.y[i])
			} else {
				_, err = st.ing.Insert(p)
			}
			if err != nil {
				ingErrors.Add(1)
				continue
			}
			applied++
		}
		st.pending.Add(-int64(len(j.pts)))
	}
	ingPoints.Add(int64(applied))
	e, err := s.ownedEntry(st)
	if err != nil {
		ingErrors.Add(1)
		return
	}
	served, err := s.publishDelta(st, e)
	if err != nil {
		ingErrors.Add(1)
	}
	st.observe(jobs, served)
	out, err := st.ing.Refresh()
	if err != nil {
		ingErrors.Add(1)
		return
	}
	if out.Remap != nil {
		st.republish = true
	}
	if !st.republish {
		return
	}
	if err := s.publishFull(st); err != nil {
		ingErrors.Add(1)
		return
	}
	st.observe(nil, true)
}

// observe records the label-to-servable staleness of jobs' labeled
// requests, and of those earlier batches left unserved, once served; until
// then it keeps their arrival times, the newest latencySamples, as many
// as the ring holds. Unlabeled requests serve nothing and are skipped.
func (st *ingestState) observe(jobs []ingestJob, served bool) {
	for _, j := range jobs {
		if j.y != nil {
			st.owed = append(st.owed, j.arrival)
		}
	}
	if !served {
		if n := len(st.owed) - latencySamples; n > 0 {
			st.owed = st.owed[n:]
		}
		return
	}
	now := time.Now()
	for _, at := range st.owed {
		stalenessWin.observe(float64(now.Sub(at).Microseconds()))
	}
	st.owed = st.owed[:0]
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

// publishDelta rolls the owned entry e forward by the labels added since
// the last publish, as a snapshot delta, and reports whether the served
// model carries them (an empty delta publishes nothing). A span that is
// not appendable, an owed full republish or a delta the model rejects
// (returned as an error) sets st.republish instead.
func (s *Server) publishDelta(st *ingestState, e *Entry) (bool, error) {
	d, ok := st.ing.TakeDelta()
	if !ok || st.republish {
		st.republish = true
		return false, nil
	}
	if d.Len() == 0 {
		return true, nil
	}
	m2, err := e.Model.ApplyDelta(d)
	if err != nil {
		st.republish = true
		return false, err
	}
	if err := s.publishOwned(st, m2); err != nil {
		return false, err
	}
	ingDeltaRoll.Add(1)
	return true, nil
}

// publishFull republishes the refreshed snapshot over st's entry and
// resets the publish cursor. It must follow a successful refresh:
// MarkPublished would skip labels a failed refresh left pending.
func (s *Server) publishFull(st *ingestState) error {
	snap, err := st.ing.Snapshot()
	if err != nil {
		return err
	}
	m2, err := NewModel(snap, WithWorkers(s.cfg.Workers))
	if err != nil {
		return err
	}
	if err := s.publishOwned(st, m2); err != nil {
		return err
	}
	st.ing.MarkPublished()
	st.republish = false
	ingFullRoll.Add(1)
	return nil
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

// ingestRequest is the body of POST /v1/ingest. Y, when present, aligns
// with Points and labels every point; omitted, the points are ingested
// unlabeled (they refine future refreshed scores but add no anchors).
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
	if err := s.decodeBody(w, r, new(bodyDecoder), &req); err != nil {
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
// or delete has already retired.
func (s *Server) admitIngest(name string, job ingestJob) (*ingestState, error) {
	s.publishMu.Lock()
	defer s.publishMu.Unlock()
	if _, err := s.registry.Load(name); err != nil {
		return nil, err
	}
	st := s.ingestStateFor(name)
	if st == nil {
		return nil, fmt.Errorf("serve: model %q was not fitted with \"stream\": true: %w", name, ErrPoint)
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
