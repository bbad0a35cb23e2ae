package sim

import (
	"encoding/binary"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/obs"
)

// EvalCache is the pluggable evaluation-cache tier: anything that can
// memoize (key -> evaluation outcome) pairs. The in-process Cache is the
// only production implementation - every path, cluster workers included,
// evaluates on one - and the interface stays so benchmarks and tests can
// substitute instrumented tiers. dse, engine, service and soma all consume
// this interface rather than the concrete Cache.
//
// Memoize looks a *Cache up through its byte-keyed path, which hashes a
// key once and allocates nothing on a hit; other tiers see string keys,
// converted once per Memoize.
//
// Semantics every implementation must honor:
//
//   - Get returns a private copy the caller may mutate freely.
//   - Put may drop entries (bounded tiers); a cache is an accelerator,
//     never a source of truth. (*Cache drops one on a 64-bit hash
//     collision.)
//   - Evaluations are deterministic per key, so two racing Puts for one key
//     always store equal values - implementations may keep either.
//   - All methods are safe for concurrent use.
type EvalCache interface {
	// Get returns the memoized evaluation for key: the metrics (nil when
	// the cached evaluation failed), the cached failure (nil on success),
	// and whether the key was present at all.
	Get(key string) (*Metrics, error, bool)
	// Put stores one evaluation outcome under key.
	Put(key string, m *Metrics, err error)
	// Stats snapshots the tier's counters.
	Stats() CacheStats
}

// ExportCacheMetrics registers c's counters on reg when c is a *Cache;
// other tiers export nothing. Safe on a nil cache or registry.
func ExportCacheMetrics(c EvalCache, reg *obs.Registry) {
	if cc, ok := c.(*Cache); ok {
		cc.ExportMetrics(reg)
	}
}

// Memoize returns the cached evaluation for key from any EvalCache tier, or
// runs eval and stores its result: Get, then on a miss eval and Put. key
// is the caller's buffer; it must not change until Memoize returns, and the
// cache copies it only to insert a miss. A hit is written into dst when it
// is non-nil, so a caller that reuses dst (a search chain scoring its
// proposals) makes a hit allocate nothing; with a nil dst, or a tier other
// than *Cache, a hit returns a fresh copy. A miss returns what eval
// returned. A nil cache runs eval uncached; a typed-nil *Cache always misses
// and stores nothing. Concurrent misses on one key each run eval, and Put
// keeps the first insert.
func Memoize(c EvalCache, key []byte, dst *Metrics, eval func() (*Metrics, error)) (*Metrics, error) {
	if c == nil {
		return eval()
	}
	if cc, ok := c.(*Cache); ok {
		return cc.memoize(key, dst, eval)
	}
	k := string(key)
	if m, err, ok := c.Get(k); ok {
		return m, err
	}
	m, err := eval()
	c.Put(k, m, err)
	return m, err
}

// CachedEvaluate is a memoizing Evaluate over any EvalCache tier. Its key,
// Key(CacheScope+CanonicalKey, BufferBudget), is built as bytes, and its
// result is a fresh value the caller may keep. Traced evaluations bypass
// the cache: their slices are large and the execution-graph renderer only
// ever runs once per figure.
func CachedEvaluate(c EvalCache, s *core.Schedule, cs *coresched.Scheduler, opt Options) (*Metrics, error) {
	if c == nil || opt.Trace {
		return Evaluate(s, cs, opt)
	}
	k := AppendBudget(s.AppendCanonicalKey([]byte(opt.CacheScope), nil, nil), opt.BufferBudget)
	return Memoize(c, k, nil, func() (*Metrics, error) {
		return Evaluate(s, cs, opt)
	})
}

// Cache memoizes schedule evaluations. The annealing stages revisit states -
// rejected moves get re-proposed, portfolio chains share the initial
// solution, and every stage re-evaluates its winner once more at the end -
// so keying the evaluator by the schedule's canonical encoding (plus the
// buffer budget, which decides feasibility) turns those repeats into map
// lookups. A Cache is safe for concurrent use by the portfolio workers.
//
// A lookup hashes its key once, with maphash and a seed of the cache's
// own, before it takes the mutex; the maps are keyed by that hash, and each
// entry keeps its key, which a lookup compares with the one it was given.
// An entry whose hash matches but whose key does not (a 64-bit collision)
// is a miss, and the miss's insert replaces it. Entries never change once
// inserted, so a hit copies its metrics after releasing the mutex.
//
// Eviction is generational, which makes the cache safe to embed in a
// long-running daemon: entries live in two maps, cur and old, each holding
// at most cap/2 entries. Inserts go to cur; when cur fills, old is dropped
// and cur becomes the new old (one "flush" of the oldest generation). A hit
// in old promotes the entry back into cur. Total memory is therefore
// bounded by cap entries while the annealer's short revisit distance keeps
// hitting the surviving generation - unlike the previous wholesale flush,
// which emptied the cache at exactly the moment it was hottest.
type Cache struct {
	mu       sync.Mutex
	cur, old map[uint64]*cacheEntry
	cap      int
	seed     maphash.Seed
	// mask is ANDed into every hash: all ones, except in tests that force
	// collisions.
	mask uint64

	// Counters are atomics, not mu-guarded fields: Stats is polled by
	// observers (somad /v1/stats, progress reporting) while portfolio
	// workers hammer Get and Put, and counting outside the critical section
	// keeps the stats exact even on the paths that bypass the maps.
	hits, misses, flushes atomic.Int64
}

// cacheEntry is one memoized evaluation and its key. It is immutable once
// inserted.
type cacheEntry struct {
	key string
	m   Metrics
	err error
}

// DefaultCacheEntries bounds the cache before it flushes. An entry is a
// Metrics value plus its key, copied once when a miss is inserted, and the
// key dominates on large schedules: a stage-2 key holds about two varint
// bytes per DRAM tensor for the DRAM Tensor Order and two for the Living
// Duration. Stage-1 winners of the 2-block gpt2s prefill cut carry
// 1,900-2,900 tensors, so their stage-2 keys run 7.5-12 KB, and at 12 KB a
// full cache holds about 1.5 GB of keys. Stage-1 keys, a few bytes per
// layer, stay small.
const DefaultCacheEntries = 1 << 17

// NewCache creates a cache holding at most capacity entries (<= 0 selects
// DefaultCacheEntries); entries beyond that evict the oldest generation.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheEntries
	}
	return &Cache{cur: make(map[uint64]*cacheEntry), cap: capacity,
		seed: maphash.MakeSeed(), mask: ^uint64(0)}
}

// gen is the per-generation entry bound (>= 1 so even cap 1 makes progress).
func (c *Cache) gen() int {
	g := c.cap / 2
	if g < 1 {
		g = 1
	}
	return g
}

// insert adds an entry under hash h to the current generation, rotating
// generations when it is full. An entry of another key under h in cur is
// replaced. Callers hold c.mu.
func (c *Cache) insert(h uint64, e *cacheEntry) {
	if _, ok := c.cur[h]; !ok && len(c.cur) >= c.gen() {
		c.old = c.cur
		c.cur = make(map[uint64]*cacheEntry, c.gen())
		c.flushes.Add(1)
	}
	c.cur[h] = e
}

// lookup finds key's entry under hash h in either generation, promoting
// old hits so the working set survives rotation. An entry of another key
// under h is a miss. Callers hold c.mu.
func lookup[K string | []byte](c *Cache, h uint64, key K) *cacheEntry {
	if e := c.cur[h]; e != nil && e.key == string(key) {
		return e
	}
	if e := c.old[h]; e != nil && e.key == string(key) {
		delete(c.old, h)
		c.insert(h, e)
		return e
	}
	return nil
}

// get looks key up under hash h and counts the hit or miss.
func get[K string | []byte](c *Cache, h uint64, key K) *cacheEntry {
	c.mu.Lock()
	e := lookup(c, h, key)
	c.mu.Unlock()
	if e == nil {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	return e
}

// memoize is Memoize on a *Cache: one hash, a lookup under the mutex, and
// on a miss eval and an insert under the same hash.
func (c *Cache) memoize(key []byte, dst *Metrics, eval func() (*Metrics, error)) (*Metrics, error) {
	if c == nil {
		return eval()
	}
	h := maphash.Bytes(c.seed, key) & c.mask
	if e := get(c, h, key); e != nil {
		if dst == nil {
			dst = new(Metrics)
		}
		*dst = e.m
		return dst, e.err
	}
	m, err := eval()
	c.put(h, newEntry(string(key), m, err))
	return m, err
}

// newEntry is the cache entry for one evaluation outcome under key.
func newEntry(key string, m *Metrics, err error) *cacheEntry {
	e := &cacheEntry{key: key, err: err}
	if m != nil {
		e.m = *m
	}
	return e
}

// put inserts e under hash h unless its key is already present. Two workers
// racing on one key keep the first entry - results are deterministic, so
// either copy is right, and re-inserting must not count toward generation
// fill or trigger a spurious flush.
func (c *Cache) put(h uint64, e *cacheEntry) {
	c.mu.Lock()
	if lookup(c, h, e.key) == nil {
		c.insert(h, e)
	}
	c.mu.Unlock()
}

// Get implements EvalCache: the cached evaluation for key, counted as a hit
// or miss. The returned Metrics is a private copy. Safe on a nil cache
// (always a miss, counted nowhere).
func (c *Cache) Get(key string) (*Metrics, error, bool) {
	if c == nil {
		return nil, nil, false
	}
	e := get(c, maphash.String(c.seed, key)&c.mask, key)
	if e == nil {
		return nil, nil, false
	}
	m := e.m
	return &m, e.err, true
}

// Put implements EvalCache, keeping the first entry when two workers race
// on one key. Safe on a nil cache (no-op).
func (c *Cache) Put(key string, m *Metrics, err error) {
	if c == nil {
		return
	}
	c.put(maphash.String(c.seed, key)&c.mask, newEntry(key, m, err))
}

// Key combines a canonical schedule (or encoding) key with the buffer budget
// it is evaluated under. It defines the cache-key format; the lookups build
// the same bytes in buffers with AppendBudget (CachedEvaluate, stage 1's
// encoding keys, Incremental.Key), so stage 1 skips the parse entirely on
// a hit.
func Key(canonical string, budget int64) string {
	return string(AppendBudget([]byte(canonical), budget))
}

// AppendBudget appends Key's encoding of the buffer budget to b: a key
// built in a reused buffer as canonical bytes plus AppendBudget equals Key.
func AppendBudget(b []byte, budget int64) []byte { return binary.AppendVarint(b, budget) }

// CacheStats is a point-in-time counter snapshot. report.HitRate formats the
// counters as a rate for run reports; somad serves them raw on /v1/stats.
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Entries counts both live generations; Flushes counts evictions of
	// the oldest generation.
	Entries int   `json:"entries"`
	Flushes int64 `json:"flushes"`
	// Rate is HitRate() precomputed at snapshot time, so JSON consumers
	// (the somad dashboard, /v1/stats scripts) never re-derive it.
	Rate float64 `json:"hit_rate"`
}

// HitRate returns Hits / (Hits + Misses), or 0 for an unused cache - the one
// shared definition report, service and somabench format from.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the cache counters. Safe on a nil cache.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	entries := len(c.cur) + len(c.old)
	c.mu.Unlock()
	st := CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(),
		Entries: entries, Flushes: c.flushes.Load()}
	st.Rate = st.HitRate()
	return st
}

// ExportMetrics registers pull gauges on reg exposing this cache's counters
// as the sim_eval_cache_* family. Gauges read the cache's own atomics at
// exposition time, so exporting costs nothing on the evaluation path.
// Re-exporting (e.g. after swapping caches) re-points the gauges at the new
// cache. Safe on a nil cache or nil registry.
func (c *Cache) ExportMetrics(reg *obs.Registry) {
	if c == nil || reg == nil {
		return
	}
	reg.GaugeFunc("sim_eval_cache_hits_total",
		"Evaluation-cache hits.", func() float64 { return float64(c.hits.Load()) })
	reg.GaugeFunc("sim_eval_cache_misses_total",
		"Evaluation-cache misses.", func() float64 { return float64(c.misses.Load()) })
	reg.GaugeFunc("sim_eval_cache_flushes_total",
		"Evaluation-cache generation evictions.", func() float64 { return float64(c.flushes.Load()) })
	reg.GaugeFunc("sim_eval_cache_entries",
		"Live evaluation-cache entries across both generations.", func() float64 {
			c.mu.Lock()
			n := len(c.cur) + len(c.old)
			c.mu.Unlock()
			return float64(n)
		})
}
