package sim

import (
	"math"
	"sync"
	"testing"

	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/graph"
	"soma/internal/hw"
)

func cacheTestSchedule(t testing.TB) (*core.Schedule, *coresched.Scheduler) {
	t.Helper()
	g := graph.New("cache", 1)
	sh := graph.Shape{N: 1, C: 16, H: 28, W: 28}
	in := g.Add(graph.Layer{Name: "in", Kind: graph.Input, Out: sh})
	a := g.Add(graph.Layer{Name: "a", Kind: graph.Conv, Deps: []graph.Dep{{Producer: in}},
		Out: sh, K: graph.Kernel{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1},
		WeightBytes: 16 * 16 * 9, Ops: 2 * 16 * 16 * 9 * 28 * 28})
	g.Add(graph.Layer{Name: "b", Kind: graph.Conv, Deps: []graph.Dep{{Producer: a}},
		Out: sh, K: graph.Kernel{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1},
		WeightBytes: 16 * 16 * 9, Ops: 2 * 16 * 16 * 9 * 28 * 28})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := core.Parse(g, core.DefaultEncoding(g, 2))
	if err != nil {
		t.Fatal(err)
	}
	return s, coresched.New(hw.Edge())
}

// TestCacheMatchesFreshEvaluation is the cache-correctness check: a cached
// result must be identical to a fresh evaluation of the same schedule.
func TestCacheMatchesFreshEvaluation(t *testing.T) {
	s, cs := cacheTestSchedule(t)
	c := NewCache(0)

	fresh, err := Evaluate(s, cs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := CachedEvaluate(c, s, cs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := CachedEvaluate(c, s.Clone(), cs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Metrics{first, cached} {
		if m.LatencyNS != fresh.LatencyNS || m.EnergyPJ != fresh.EnergyPJ ||
			m.PeakBufferBytes != fresh.PeakBufferBytes ||
			m.TotalDRAMBytes != fresh.TotalDRAMBytes ||
			m.Utilization != fresh.Utilization {
			t.Fatalf("cached metrics diverge from fresh: %+v vs %+v", m, fresh)
		}
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("expected 1 hit / 1 miss, got %+v", st)
	}

	// Mutating a returned value must not poison later lookups.
	cached.LatencyNS = -1
	again, err := CachedEvaluate(c, s, cs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again.LatencyNS != fresh.LatencyNS {
		t.Fatal("cache returned an aliased, mutated value")
	}
}

func TestCacheKeyIncludesBudget(t *testing.T) {
	s, cs := cacheTestSchedule(t)
	c := NewCache(0)
	full, err := CachedEvaluate(c, s, cs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := CachedEvaluate(c, s, cs, Options{BufferBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !full.BufferOK || tiny.BufferOK {
		t.Fatalf("budget must decide feasibility: full=%v tiny=%v", full.BufferOK, tiny.BufferOK)
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("different budgets must be distinct entries: %+v", st)
	}
}

func TestCacheTraceBypassAndFlush(t *testing.T) {
	s, cs := cacheTestSchedule(t)
	c := NewCache(2)
	if _, err := CachedEvaluate(c, s, cs, Options{Trace: true}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("traced evaluations must bypass the cache: %+v", st)
	}

	// Capacity 2 (generations of 1): three distinct keys must rotate the
	// generations at least once and never hold more than cap entries.
	for _, budget := range []int64{0, 1, 2} {
		if _, err := CachedEvaluate(c, s, cs, Options{BufferBudget: budget}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Flushes == 0 || st.Entries > 2 {
		t.Fatalf("expected generational eviction at capacity: %+v", st)
	}
}

// TestCacheGenerationalEviction drives Memoize through many distinct keys
// and checks the daemon-facing guarantees: memory stays bounded by the
// capacity while recently used entries survive rotation via promotion.
func TestCacheGenerationalEviction(t *testing.T) {
	c := NewCache(4) // generations of 2
	evals := 0
	get := func(key string) {
		_, _ = Memoize(c, []byte(key), nil, func() (*Metrics, error) {
			evals++
			return &Metrics{}, nil
		})
	}
	for _, key := range []string{"a", "b", "c", "a", "d", "a", "b"} {
		get(key)
		if st := c.Stats(); st.Entries > 4 {
			t.Fatalf("cache exceeded its capacity: %+v", st)
		}
	}
	st := c.Stats()
	// "a" is hit twice (promoted out of the old generation both times);
	// "b" was evicted with its generation and re-evaluated.
	if st.Hits != 2 || st.Misses != 5 || evals != 5 {
		t.Fatalf("hits/misses/evals = %d/%d/%d, want 2/5/5 (%+v)", st.Hits, st.Misses, evals, st)
	}
	if st.Flushes != 3 {
		t.Fatalf("expected 3 generation rotations, got %+v", st)
	}
	// The bound must hold under sustained churn, not just this sequence.
	for i := 0; i < 1000; i++ {
		get(string(rune('e' + i%64)))
	}
	if st := c.Stats(); st.Entries > 4 {
		t.Fatalf("sustained churn broke the bound: %+v", st)
	}
}

func TestCacheConcurrentEvaluate(t *testing.T) {
	s, cs := cacheTestSchedule(t)
	c := NewCache(0)
	want, err := Evaluate(s, cs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m, err := CachedEvaluate(c, s, cs, Options{})
				if err != nil || m.LatencyNS != want.LatencyNS {
					t.Errorf("concurrent evaluate diverged: %v %v", m, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Hits+st.Misses != 400 || st.Hits <= 0 {
		t.Fatalf("unexpected counters: %+v", st)
	}
}

// TestNilCacheDelegates: a typed nil *Cache inside the EvalCache interface
// evaluates uncached and counts nothing.
func TestNilCacheDelegates(t *testing.T) {
	s, cs := cacheTestSchedule(t)
	var c *Cache
	m, err := CachedEvaluate(c, s, cs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.LatencyNS <= 0 || math.IsInf(m.LatencyNS, 1) {
		t.Fatalf("latency = %g", m.LatencyNS)
	}
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats must be zero: %+v", st)
	}
}

// TestCacheScopeSeparatesContexts: canonical keys only identify schedules
// within one (graph, hardware) pair, so a shared cache must keep entries
// from different scopes apart (the somad daemon relies on this).
func TestCacheScopeSeparatesContexts(t *testing.T) {
	s, cs := cacheTestSchedule(t)
	c := NewCache(0)
	if _, err := CachedEvaluate(c, s, cs, Options{CacheScope: "resnet50|1|edge|"}); err != nil {
		t.Fatal(err)
	}
	if _, err := CachedEvaluate(c, s, cs, Options{CacheScope: "resnet50|16|edge|"}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("different scopes must not share entries: %+v", st)
	}
	if _, err := CachedEvaluate(c, s, cs, Options{CacheScope: "resnet50|1|edge|"}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("same scope must hit: %+v", st)
	}
}

// TestCacheConcurrentSameKeyAccounting hammers a small keyset from many
// goroutines so several workers miss the same key simultaneously (the
// portfolio-chain pattern). The counters must account for every single call
// - hits + misses == calls exactly, no undercounting - and the duplicate
// inserts of a shared key must not count toward generation fill: with a
// keyset smaller than one generation, no flush may ever happen.
func TestCacheConcurrentSameKeyAccounting(t *testing.T) {
	c := NewCache(64) // gen() == 32 > keys: any flush is a double-insert bug
	const workers, rounds, keys = 16, 200, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := Key("k", int64(i%keys))
				m, err := Memoize(c, []byte(key), nil, func() (*Metrics, error) {
					return &Metrics{LatencyNS: float64(i % keys)}, nil
				})
				if err != nil || m.LatencyNS != float64(i%keys) {
					t.Errorf("worker %d: wrong result %v %v", w, m, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != workers*rounds {
		t.Fatalf("counters undercount: hits %d + misses %d != %d calls",
			st.Hits, st.Misses, workers*rounds)
	}
	if st.Misses < keys {
		t.Fatalf("fewer misses (%d) than distinct keys (%d)", st.Misses, keys)
	}
	if st.Entries != keys {
		t.Fatalf("entries = %d, want %d", st.Entries, keys)
	}
	if st.Flushes != 0 {
		t.Fatalf("duplicate concurrent inserts triggered %d flushes", st.Flushes)
	}
}

// TestCacheConcurrentRotation rotates generations under concurrency: a
// capacity far below the keyset forces flushes while workers read stats.
func TestCacheConcurrentRotation(t *testing.T) {
	c := NewCache(8)
	const workers, rounds = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := Key("rot", int64((w*rounds+i)%64))
				if _, err := Memoize(c, []byte(key), nil, func() (*Metrics, error) {
					return &Metrics{LatencyNS: 1}, nil
				}); err != nil {
					t.Errorf("memoize: %v", err)
					return
				}
				if i%32 == 0 {
					_ = c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != workers*rounds {
		t.Fatalf("counters undercount: hits %d + misses %d != %d calls",
			st.Hits, st.Misses, workers*rounds)
	}
	if st.Flushes == 0 {
		t.Fatal("tiny cache never rotated")
	}
	if st.Entries > 8+1 {
		t.Fatalf("entries %d exceed capacity", st.Entries)
	}
}
