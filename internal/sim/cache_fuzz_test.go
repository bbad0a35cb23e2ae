package sim

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// refCache is the string-keyed generational cache that Cache replaced, kept
// as the reference its hashed byte-keyed lookups must match: same hits,
// same misses, same generation rotations, same entries.
type refCache struct {
	cur, old              map[string]cacheEntry
	cap                   int
	hits, misses, flushes int64
}

func newRefCache(capacity int) *refCache {
	return &refCache{cur: make(map[string]cacheEntry), cap: capacity}
}

func (c *refCache) gen() int { return max(c.cap/2, 1) }

func (c *refCache) insert(key string, e cacheEntry) {
	if _, ok := c.cur[key]; !ok && len(c.cur) >= c.gen() {
		c.old = c.cur
		c.cur = make(map[string]cacheEntry, c.gen())
		c.flushes++
	}
	c.cur[key] = e
}

func (c *refCache) lookup(key string) (cacheEntry, bool) {
	if e, ok := c.cur[key]; ok {
		return e, true
	}
	if e, ok := c.old[key]; ok {
		delete(c.old, key)
		c.insert(key, e)
		return e, true
	}
	return cacheEntry{}, false
}

func (c *refCache) Get(key string) (*Metrics, error, bool) {
	e, ok := c.lookup(key)
	if !ok {
		c.misses++
		return nil, nil, false
	}
	c.hits++
	m := e.m
	return &m, e.err, true
}

func (c *refCache) Put(key string, m *Metrics, err error) {
	e := cacheEntry{err: err}
	if m != nil {
		e.m = *m
	}
	if _, ok := c.lookup(key); !ok {
		c.insert(key, e)
	}
}

func (c *refCache) Memoize(key string, eval func() (*Metrics, error)) (*Metrics, error) {
	if m, err, ok := c.Get(key); ok {
		return m, err
	}
	m, err := eval()
	c.Put(key, m, err)
	return m, err
}

func (c *refCache) Stats() CacheStats {
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.cur) + len(c.old), Flushes: c.flushes}
}

// fuzzKeys are the keys FuzzCacheMemoize draws from: prefixes of one
// another, an empty key and keys past one hash block.
var fuzzKeys = []string{"", "a", "ab", "abc", "b", "ba", "\x00", "\x00\x00",
	strings.Repeat("k", 200), strings.Repeat("k", 201), strings.Repeat("kj", 100), "enc:\x01\x02"}

var errFuzzEval = errors.New("deadlocked")

// fuzzEval is key i's deterministic evaluation; every third key fails.
func fuzzEval(i int) func() (*Metrics, error) {
	return func() (*Metrics, error) {
		if i%3 == 2 {
			return &Metrics{}, errFuzzEval
		}
		return &Metrics{LatencyNS: float64(i + 1), EnergyPJ: float64(3 * i), BufferOK: i%2 == 0}, nil
	}
}

// FuzzCacheMemoize replays random Memoize/Get/Put sequences on a Cache and
// on refCache at capacities 1-8, so generations rotate and promote: every
// returned metrics value, error and hit, and the counters after each
// operation, must match.
func FuzzCacheMemoize(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 1, 2, 0, 3})
	f.Add([]byte{3, 0, 1, 1, 2, 2, 3, 3, 1, 4, 5, 0, 1, 1, 2})
	f.Add([]byte{7, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 1, 0, 2, 1, 4, 11, 3, 10})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		capacity := 1 + int(ops[0]%8)
		c, ref := NewCache(capacity), newRefCache(capacity)
		var dst Metrics
		for step := 1; step+1 < len(ops); step += 2 {
			op, i := ops[step]%5, int(ops[step+1])%len(fuzzKeys)
			key := fuzzKeys[i]
			var got, want *Metrics
			var gotErr, wantErr error
			var gotHit, wantHit bool
			switch op {
			case 0, 1: // Memoize, with and without hit storage
				var d *Metrics
				if op == 1 {
					d = &dst
				}
				evals := 0
				eval := fuzzEval(i)
				got, gotErr = Memoize(c, []byte(key), d, func() (*Metrics, error) { evals++; return eval() })
				gotHit = evals == 0
				if gotHit && d != nil && got != d {
					t.Fatalf("step %d: a hit with storage returned %p, not the storage %p", step, got, d)
				}
				wantEvals := 0
				want, wantErr = ref.Memoize(key, func() (*Metrics, error) { wantEvals++; return eval() })
				wantHit = wantEvals == 0
			case 2:
				got, gotErr, gotHit = c.Get(key)
				want, wantErr, wantHit = ref.Get(key)
			default: // Put a value of its own, not necessarily key's evaluation
				m, err := fuzzEval(int(ops[step]))()
				c.Put(key, m, err)
				ref.Put(key, m, err)
			}
			what := fmt.Sprintf("step %d (op %d, key %q, capacity %d)", step, op, key, capacity)
			if gotHit != wantHit || gotErr != wantErr || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: got %+v, %v, hit %v; want %+v, %v, hit %v",
					what, got, gotErr, gotHit, want, wantErr, wantHit)
			}
			gotSt, wantSt := c.Stats(), ref.Stats()
			gotSt.Rate = 0
			if gotSt != wantSt {
				t.Fatalf("%s: stats %+v, want %+v", what, gotSt, wantSt)
			}
		}
	})
}

// TestCacheCollisionIsAMiss forces every key onto one hash: a lookup must
// compare the stored key, so a colliding key misses and never returns the
// other key's metrics, and its insert replaces the entry.
func TestCacheCollisionIsAMiss(t *testing.T) {
	c := NewCache(8)
	c.mask = 0
	a, b := fuzzEval(0), fuzzEval(1)
	check := func(key string, eval func() (*Metrics, error), wantLatency float64, wantHit bool) {
		t.Helper()
		evals := 0
		var dst Metrics
		m, err := Memoize(c, []byte(key), &dst, func() (*Metrics, error) { evals++; return eval() })
		if err != nil || m.LatencyNS != wantLatency || (evals == 0) != wantHit {
			t.Fatalf("Memoize(%q) = %+v, %v after %d evals; want latency %g, hit %v",
				key, m, err, evals, wantLatency, wantHit)
		}
	}
	check("a", a, 1, false)
	check("b", b, 2, false)
	check("b", b, 2, true)
	check("a", a, 1, false)
	if m, _, ok := c.Get("b"); ok {
		t.Fatalf("Get(b) after a replaced it = %+v, want a miss", m)
	}
	c.Put("b", &Metrics{LatencyNS: 2}, nil)
	if m, _, ok := c.Get("a"); ok {
		t.Fatalf("Get(a) after b replaced it = %+v, want a miss", m)
	}
	if m, _, ok := c.Get("b"); !ok || m.LatencyNS != 2 {
		t.Fatalf("Get(b) = %+v, %v; want latency 2", m, ok)
	}
	if st := c.Stats(); st.Entries != 1 || st.Flushes != 0 {
		t.Fatalf("colliding keys share one slot: %+v", st)
	}
}

// TestMemoizeHitAllocs: a hit on a warm Cache, written into the caller's
// metrics, allocates nothing, whatever the key's length.
func TestMemoizeHitAllocs(t *testing.T) {
	c := NewCache(0)
	eval := fuzzEval(0)
	for _, n := range []int{8, 12 << 10} {
		key := AppendBudget([]byte(strings.Repeat("k", n)), 3<<20)
		var dst Metrics
		Memoize(c, key, &dst, eval)
		allocs := testing.AllocsPerRun(100, func() { Memoize(c, key, &dst, eval) })
		if allocs != 0 || dst.LatencyNS != 1 {
			t.Errorf("%d-byte key: %.1f allocs per hit, metrics %+v", len(key), allocs, dst)
		}
	}
}
