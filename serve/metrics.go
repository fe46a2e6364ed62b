package serve

import (
	"expvar"
	"sort"
	"sync"
	"time"
)

// Serving metrics, published under the repo-wide "graphssl." expvar
// namespace (see report.go at the root) and served by the HTTP server at
// /debug/vars. Registration happens at package init, once per process, so
// multiple servers or tests in one binary share the counters instead of
// panicking on duplicate names.
var (
	srvRequests      = expvar.NewInt("graphssl.serve.requests_total")
	srvPoints        = expvar.NewInt("graphssl.serve.points_total")
	srvErrors        = expvar.NewInt("graphssl.serve.errors_total")
	srvRejected      = expvar.NewInt("graphssl.serve.rejected_total")
	srvCacheHits     = expvar.NewInt("graphssl.serve.cache_hits")
	srvCacheMisses   = expvar.NewInt("graphssl.serve.cache_misses")
	srvShedBudget    = expvar.NewInt("graphssl.serve.shed_budget")
	srvAnchorsPruned = expvar.NewInt("graphssl.serve.anchors_pruned")
	srvModelVersion  = expvar.NewMap("graphssl.serve.model_version")

	// liveServers tracks every open Server so queue depth can be reported
	// as a live gauge.
	liveServers sync.Map // *Server -> struct{}

	qpsWin slidingRate
	latWin latencyRing
)

func init() {
	expvar.Publish("graphssl.serve.qps", expvar.Func(func() any { return qpsWin.rate(time.Now()) }))
	expvar.Publish("graphssl.serve.latency_us", expvar.Func(func() any {
		p50, p99 := latWin.quantiles()
		return map[string]float64{"p50": p50, "p99": p99}
	}))
	expvar.Publish("graphssl.serve.queue_depth", expvar.Func(func() any {
		var total int64
		liveServers.Range(func(k, _ any) bool {
			total += k.(*Server).inflight.Load()
			return true
		})
		return total
	}))
}

// countRequest records one predict request carrying n points, and its
// latency.
func countRequest(n int, d time.Duration) {
	srvRequests.Add(1)
	srvPoints.Add(int64(n))
	qpsWin.add(time.Now(), 1)
	latWin.observe(float64(d.Microseconds()))
}

// countError records one failed request.
func countError() { srvErrors.Add(1) }

// countRejected records one request turned away by admission control.
func countRejected() { srvRejected.Add(1) }

// countCache records the cache outcome split of one predict request.
func countCache(hits, misses int) {
	if hits > 0 {
		srvCacheHits.Add(int64(hits))
	}
	if misses > 0 {
		srvCacheMisses.Add(int64(misses))
	}
}

// countShedBudget records one request shed by a per-model point budget.
func countShedBudget() { srvShedBudget.Add(1) }

// countPruned records anchors skipped without evaluation by the spatial
// index or top-m truncation.
func countPruned(n int64) {
	if n > 0 {
		srvAnchorsPruned.Add(n)
	}
}

// setModelVersion publishes the current version of a named model.
func setModelVersion(name string, version int64) {
	v := new(expvar.Int)
	v.Set(version)
	srvModelVersion.Set(name, v)
}

// clearModelVersion removes a deleted model from the version map.
func clearModelVersion(name string) {
	srvModelVersion.Delete(name)
}

// rateBuckets is the sliding-window width, in one-second buckets.
const rateBuckets = 8

// slidingRate is a per-second sliding-window counter: adds land in the
// bucket of their wall-clock second, rate averages the previous (complete)
// seconds of the window.
type slidingRate struct {
	mu      sync.Mutex
	counts  [rateBuckets]int64
	seconds [rateBuckets]int64
}

func (s *slidingRate) add(now time.Time, n int64) {
	sec := now.Unix()
	i := sec % rateBuckets
	s.mu.Lock()
	if s.seconds[i] != sec {
		s.seconds[i] = sec
		s.counts[i] = 0
	}
	s.counts[i] += n
	s.mu.Unlock()
}

func (s *slidingRate) rate(now time.Time) float64 {
	sec := now.Unix()
	var total int64
	s.mu.Lock()
	for i := range s.counts {
		if age := sec - s.seconds[i]; age >= 1 && age < rateBuckets {
			total += s.counts[i]
		}
	}
	s.mu.Unlock()
	return float64(total) / float64(rateBuckets-1)
}

// latencySamples is the quantile ring size.
const latencySamples = 1024

// latencyRing keeps the last latencySamples request latencies (µs) for
// streaming p50/p99 estimates.
type latencyRing struct {
	mu  sync.Mutex
	buf [latencySamples]float64
	n   int // total observations (saturates the ring at latencySamples)
	idx int
}

func (l *latencyRing) observe(us float64) {
	l.mu.Lock()
	l.buf[l.idx] = us
	l.idx = (l.idx + 1) % latencySamples
	if l.n < latencySamples {
		l.n++
	}
	l.mu.Unlock()
}

func (l *latencyRing) quantiles() (p50, p99 float64) {
	l.mu.Lock()
	n := l.n
	tmp := make([]float64, n)
	copy(tmp, l.buf[:n])
	l.mu.Unlock()
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(tmp)
	q := func(p float64) float64 {
		i := int(p * float64(n-1))
		return tmp[i]
	}
	return q(0.50), q(0.99)
}
