package serve

import (
	"bytes"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Fleet is a replicated serving tier: n identical Servers behind a
// consistent-hash router, on one HTTP surface.
//
// Writes are leader-coordinated: a fit runs ONCE on the leader (replica 0)
// and the resulting immutable model is published to every replica's
// registry, so the fleet never burns n fits for one model and every replica
// answers from the same model bits. Deletes fan out the same way.
//
// Reads are routed: a predict request is routed by the FNV-1a hash of its
// body over the ring, so identical requests always land on the same replica
// and its prediction cache — cache affinity without any shared cache state.
// Models are immutable and replicated, so every routing choice returns the
// same scores; the ring only decides whose cache warms up.
//
// The fleet serves the same API as a single Server plus GET /v1/fleet, a
// JSON description of the topology. Readiness aggregates: /readyz is 200
// only while every replica is accepting work.
type Fleet struct {
	replicas []*Server
	ring     *Ring
	mux      *http.ServeMux
	// writeMu orders the fan-out of fleet writes, so every replica applies
	// the same Store/Delete sequence and draws the same versions from its
	// registry's counter.
	writeMu sync.Mutex
}

// NewFleet builds a fleet of n freshly created replicas sharing one
// configuration.
func NewFleet(n int, cfg Config) (*Fleet, error) {
	if n < 1 {
		return nil, fmt.Errorf("serve: fleet needs at least one replica, got %d: %w", n, ErrFleet)
	}
	ring, err := NewRing(n, 0)
	if err != nil {
		return nil, err
	}
	f := &Fleet{ring: ring}
	for i := 0; i < n; i++ {
		s := NewServer(cfg)
		// Streaming ingest mutates per-server state a fleet cannot
		// replicate; fleet fits reject "stream": true.
		s.inFleet = true
		f.replicas = append(f.replicas, s)
	}
	leader := f.replicas[0]
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", f.handlePredict)
	mux.HandleFunc("POST /v1/models/{name}", f.handleFit)
	mux.HandleFunc("DELETE /v1/models/{name}", f.handleDelete)
	mux.HandleFunc("GET /v1/models", leader.handleList)
	mux.HandleFunc("GET /v1/models/{name}", leader.handleGet)
	mux.HandleFunc("GET /v1/fleet", f.handleFleet)
	mux.HandleFunc("GET /healthz", leader.handleHealthz)
	mux.HandleFunc("GET /readyz", f.handleReadyz)
	mux.Handle("GET /debug/vars", expvar.Handler())
	f.mux = mux
	return f, nil
}

// Handler returns the HTTP handler to mount.
func (f *Fleet) Handler() http.Handler { return f.mux }

// Len returns the replica count.
func (f *Fleet) Len() int { return len(f.replicas) }

// Replica returns replica i (0 is the leader), for direct registry access
// and tests.
func (f *Fleet) Replica(i int) *Server { return f.replicas[i] }

// Ring returns the fleet's router.
func (f *Fleet) Ring() *Ring { return f.ring }

// BeginDrain flips every replica to draining; see Server.BeginDrain.
func (f *Fleet) BeginDrain() {
	for _, s := range f.replicas {
		s.BeginDrain()
	}
}

// Close drains and stops every replica; see Server.Close.
func (f *Fleet) Close() {
	for _, s := range f.replicas {
		s.Close()
	}
}

// handleFit fits once on the leader and publishes the model to every
// replica. Registry versions stay aligned across replicas because every
// write goes through the fleet, one fan-out at a time.
func (f *Fleet) handleFit(w http.ResponseWriter, r *http.Request) {
	leader := f.replicas[0]
	name, m, _, start, ok := leader.buildModel(w, r)
	if !ok {
		return
	}
	lead, err := f.publish(name, m)
	if err != nil {
		fail(w, err)
		return
	}
	setModelVersion(lead.Name, lead.Version)
	writeJSON(w, http.StatusOK, fitResponse{
		Model:   lead.Name,
		Version: lead.Version,
		Info:    m.Info(),
		Seconds: time.Since(start).Seconds(),
	})
}

// publish stores m under name on every replica and returns the leader's
// entry. Fan-outs hold writeMu, so concurrent fits apply one Store sequence
// on every replica.
func (f *Fleet) publish(name string, m *Model) (*Entry, error) {
	f.writeMu.Lock()
	defer f.writeMu.Unlock()
	var lead *Entry
	for i, s := range f.replicas {
		e, err := s.registry.Store(name, m)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			lead = e
		}
	}
	return lead, nil
}

// handleDelete unpublishes the model from every replica.
func (f *Fleet) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var firstErr error
	deleted := false
	f.writeMu.Lock()
	for _, s := range f.replicas {
		if err := s.registry.Delete(name); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		s.budgets.Delete(name)
		deleted = true
	}
	f.writeMu.Unlock()
	if !deleted {
		fail(w, firstErr)
		return
	}
	clearModelVersion(name)
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// handlePredict routes the request to the replica owning the body's hash
// and delegates; the body is re-materialized for the replica's decoder.
func (f *Fleet) handlePredict(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, f.replicas[0].cfg.MaxBodyBytes))
	if err != nil {
		fail(w, fmt.Errorf("serve: bad request body: %v: %w", err, ErrPoint))
		return
	}
	i := f.ring.Lookup(body)
	countFleetRoute(i)
	r.Body = io.NopCloser(bytes.NewReader(body))
	f.replicas[i].handlePredict(w, r)
}

// handleReadyz aggregates readiness: ready only when every replica is.
func (f *Fleet) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	for _, s := range f.replicas {
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ready",
		"replicas": len(f.replicas),
		"models":   f.replicas[0].registry.Len(),
	})
}

// fleetReplica describes one replica in GET /v1/fleet.
type fleetReplica struct {
	Replica  int  `json:"replica"`
	Leader   bool `json:"leader"`
	Models   int  `json:"models"`
	Draining bool `json:"draining"`
}

func (f *Fleet) handleFleet(w http.ResponseWriter, _ *http.Request) {
	reps := make([]fleetReplica, len(f.replicas))
	for i, s := range f.replicas {
		reps[i] = fleetReplica{
			Replica:  i,
			Leader:   i == 0,
			Models:   s.registry.Len(),
			Draining: s.Draining(),
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"replicas": reps,
		"routing":  "consistent-hash(fnv64a(body))",
		"vnodes":   len(f.ring.points),
	})
}
