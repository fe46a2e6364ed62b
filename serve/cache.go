package serve

import (
	"math"
	"sync"
)

// predCache is a bounded, sharded, version-keyed prediction cache. Keys are
// (model name, model version, query point bits), so a Registry hot-swap —
// which bumps the version — invalidates every cached prediction of the old
// model implicitly: stale entries can never be returned (the version no
// longer matches) and age out of the bounded shards FIFO-style as new
// traffic fills them. This relies on Registry versions being monotonic per
// name for the process lifetime, including across Delete: a deleted name
// refit later gets a version above every one it held, so orphaned entries
// of the dead model can never match the new one's key.
//
// Exactness contract: a hit returns the stored score verbatim, and the
// store only ever holds scores the predictor computed for bit-identical
// points under the same model version. Hash collisions are resolved by a
// full key comparison (name, version, and every coordinate's bits), so a
// cached prediction is always bitwise-identical to recomputing it.
//
// Reads take one shard mutex for a map lookup plus a key compare — no
// allocation — so the hot path stays cheap under concurrency; writes (miss
// path only) copy the point once.
type predCache struct {
	shards []cacheShard
	mask   uint64
}

// cacheShards is the shard count (power of two, indexed by hash bits).
const cacheShards = 16

// cacheEntry is one cached per-point prediction.
type cacheEntry struct {
	name    string
	version int64
	pt      []float64
	score   float64
	bound   float64
	st      pointStatus
}

// cacheShard is one FIFO-bounded segment of the cache.
type cacheShard struct {
	mu   sync.Mutex
	m    map[uint64]*cacheEntry
	keys []uint64 // FIFO ring of inserted hashes; len(m) == len(keys) once warm
	head int      // next eviction position once the ring is full
	cap  int
}

// newPredCache builds a cache bounded at totalCap entries; totalCap <= 0
// returns nil (cache disabled — all lookups miss).
func newPredCache(totalCap int) *predCache {
	if totalCap <= 0 {
		return nil
	}
	perShard := (totalCap + cacheShards - 1) / cacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &predCache{shards: make([]cacheShard, cacheShards), mask: cacheShards - 1}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]*cacheEntry, perShard)
		c.shards[i].keys = make([]uint64, 0, perShard)
		c.shards[i].cap = perShard
	}
	return c
}

// fnv-1a constants.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// cacheKey hashes (name, version, point bits) with FNV-1a. Distinct bit
// patterns of the same value (-0 vs +0, NaN payloads) key separately, which
// duplicates entries at worst — never returns the wrong score.
func cacheKey(name string, version int64, pt []float64) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime
	}
	v := uint64(version)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	for _, c := range pt {
		b := math.Float64bits(c)
		for i := 0; i < 8; i++ {
			h ^= b & 0xff
			h *= fnvPrime
			b >>= 8
		}
	}
	return h
}

// matches reports whether the entry is exactly the requested key.
func (e *cacheEntry) matches(name string, version int64, pt []float64) bool {
	if e.version != version || e.name != name || len(e.pt) != len(pt) {
		return false
	}
	for i, c := range pt {
		if math.Float64bits(e.pt[i]) != math.Float64bits(c) {
			return false
		}
	}
	return true
}

// get looks up one point's cached prediction. It never allocates.
func (c *predCache) get(name string, version int64, pt []float64) (score, bound float64, st pointStatus, ok bool) {
	if c == nil {
		return 0, 0, psOK, false
	}
	h := cacheKey(name, version, pt)
	sh := &c.shards[h&c.mask]
	sh.mu.Lock()
	e := sh.m[h]
	if e != nil && e.matches(name, version, pt) {
		score, bound, st, ok = e.score, e.bound, e.st, true
	}
	sh.mu.Unlock()
	return score, bound, st, ok
}

// put stores one computed prediction, evicting the shard's oldest insertion
// when full. The point is copied, so callers may reuse their buffers.
func (c *predCache) put(name string, version int64, pt []float64, score, bound float64, st pointStatus) {
	if c == nil {
		return
	}
	h := cacheKey(name, version, pt)
	sh := &c.shards[h&c.mask]
	sh.mu.Lock()
	if e := sh.m[h]; e != nil {
		// Hash already present: overwrite in place (collision loses the
		// older entry; the FIFO ring already tracks this hash).
		e.name, e.version = name, version
		e.pt = append(e.pt[:0], pt...)
		e.score, e.bound, e.st = score, bound, st
		sh.mu.Unlock()
		return
	}
	if len(sh.keys) < sh.cap {
		sh.keys = append(sh.keys, h)
	} else {
		victim := sh.keys[sh.head]
		delete(sh.m, victim)
		sh.keys[sh.head] = h
		sh.head++
		if sh.head == sh.cap {
			sh.head = 0
		}
	}
	sh.m[h] = &cacheEntry{
		name:    name,
		version: version,
		pt:      append([]float64(nil), pt...),
		score:   score,
		bound:   bound,
		st:      st,
	}
	sh.mu.Unlock()
}

// len returns the cached entry count (for tests and diagnostics).
func (c *predCache) len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}
