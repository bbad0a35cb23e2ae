package soma

import (
	"testing"

	"soma/internal/core"
	"soma/internal/graph"
	"soma/internal/hw"
	"soma/internal/sim"
)

// TestStage2KeyMatchesCacheKey: the key stage 2 memoizes under - its
// incremental evaluator's live key, under the explorer's scope and budget -
// equals the key CachedEvaluate derives from the scoped CanonicalKey, after
// every move of a random stage-2 walk with accepts and rejects. The sim
// package checks the live key past one-byte varints.
func TestStage2KeyMatchesCacheKey(t *testing.T) {
	g := testNet(t)
	e := New(g, hw.Edge(), EDP(), FastParams())
	e.Scope = "scope\x00"
	s, err := core.Parse(g, core.DefaultEncoding(g, 2))
	if err != nil {
		t.Fatal(err)
	}
	ms := newStage2Moves(e, s, newSizePicker(s), sim.PrecomputeTileCosts(s, e.CS), nil)
	check := func(step int) {
		t.Helper()
		want := sim.Key(e.Scope+s.CanonicalKey(), e.Cfg.GBufBytes)
		if got := ms.inc.Key(); got != want {
			t.Fatalf("step %d: key %x, want %x", step, got, want)
		}
	}
	ms.InitCost()
	check(0)
	rng := newRand(3)
	for step := 1; step <= 300; step++ {
		if _, ok := ms.Propose(rng); !ok {
			continue
		}
		check(step)
		if rng.Intn(2) == 0 {
			ms.Accept()
		} else {
			ms.Reject()
		}
		check(step)
	}
}

// TestStage2MoveAllocs gates stage 2's allocations per proposal: once the
// chain's evaluator and key are warm, a proposal - operator, key, cache
// miss through EvaluateProposal, then reject - allocates a fixed handful of
// times (the key string, the proposal's Metrics, the cache's copy of it
// and, for a deadlocked proposal, its error), on a CNN of about 500
// tensors and on a prefill cut of about 1,800 alike.
func TestStage2MoveAllocs(t *testing.T) {
	const limit = 4
	for _, c := range []struct {
		name  string
		g     *graph.Graph
		tiles int
	}{
		{"ires", mustBuild(t, "ires"), 1},
		{"gpt2s-prefill-2blk", prefill2Blk(), 16},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := New(c.g, hw.Edge(), EDP(), FastParams())
			e.Cache = sim.NewCache(0)
			s, err := core.Parse(c.g, core.DefaultEncoding(c.g, c.tiles))
			if err != nil {
				t.Fatal(err)
			}
			ms := newStage2Moves(e, s, newSizePicker(s), sim.PrecomputeTileCosts(s, e.CS), nil)
			ms.InitCost()
			rng := newRand(5)
			propose := func() {
				for {
					if _, ok := ms.Propose(rng); ok {
						ms.Reject()
						return
					}
				}
			}
			for range 200 {
				propose()
			}
			allocs := testing.AllocsPerRun(500, propose)
			st := e.Cache.Stats()
			t.Logf("%.1f allocs per proposal (%d tensors, %d misses, %d hits)",
				allocs, len(s.Tensors), st.Misses, st.Hits)
			if allocs > limit {
				t.Errorf("%.1f allocs per stage-2 proposal, limit %d", allocs, limit)
			}
		})
	}
}
