// Package serve is the model-serving subsystem: it freezes fitted
// graph-SSL models into immutable snapshots with an inductive out-of-sample
// Predict, keeps them in a concurrency-safe registry with atomic hot-swap,
// and exposes them over an HTTP JSON API with a version-keyed prediction
// cache, admission control, and graceful drain.
//
// The inductive extension is the Nadaraya–Watson form of paper Eq. 6,
//
//	f(x*) = Σ_j K_h(x*, X_j) f_j / Σ_j K_h(x*, X_j),
//
// over a frozen anchor set. Theorem II.1 justifies it: the hard-criterion
// solution converges to exactly this estimator over the labeled points, so
// extending a fit beyond its training set with the same kernel and
// bandwidth is consistent whenever the transductive fit is. By default the
// anchors are the labeled points with their fitted scores (under the hard
// criterion, exactly the observed responses), which makes Predict at an
// in-sample unlabeled point bitwise-identical to the NadarayaWatson
// baseline on a default-built graph. AnchorAll instead anchors on every
// training point with its fitted score — the Delalleau-style induction that
// also exploits the unlabeled data's fitted structure.
//
// Concurrency model: a Model is immutable and safe for unbounded concurrent
// readers. The Registry publishes a copy-on-write map through an atomic
// pointer, so lookups on the request path never take a lock and Store
// replaces a model under traffic with zero downtime. Each predict request
// evaluates its uncached points inline, through the model's tiled SIMD batch
// kernel, behind a points-bounded admission counter whose overflow surfaces
// as HTTP 429.
package serve

import "errors"

var (
	// ErrSnapshot is returned for invalid or incoherent model snapshots.
	ErrSnapshot = errors.New("serve: invalid model snapshot")
	// ErrPoint is returned for malformed query points (wrong dimension or
	// non-finite coordinates).
	ErrPoint = errors.New("serve: invalid query point")
	// ErrFitRequest is returned for a fit request the library cannot fit:
	// an unknown kernel or anchor set, a request outside the streaming
	// contract, or inputs Fit rejects (a duplicate labeled index, a
	// non-finite coordinate). It answers 400.
	ErrFitRequest = errors.New("serve: invalid fit request")
	// ErrIsolated is returned when a query point has zero similarity mass
	// to every anchor, leaving the estimator undefined there. Enlarging
	// the bandwidth usually fixes it.
	ErrIsolated = errors.New("serve: query point isolated from all anchors")
	// ErrName is returned for invalid model names.
	ErrName = errors.New("serve: invalid model name")
	// ErrNotFound is returned when a named model is not in the registry.
	ErrNotFound = errors.New("serve: model not found")
	// ErrOverloaded is returned when admitting a request's points would
	// exceed an in-flight point bound (the server's QueueDepth, a model's
	// ModelBudget, or a streaming model's ingest queue); callers should
	// retry after backing off (HTTP 429).
	ErrOverloaded = errors.New("serve: prediction queue full")
	// ErrDraining is returned for work submitted after shutdown began.
	ErrDraining = errors.New("serve: server draining")
)
