package soma

import (
	"context"
	"testing"

	"soma/internal/core"
	"soma/internal/graph"
	"soma/internal/hw"
	"soma/internal/models"
)

// prefill2Blk is GPT-2 Small prefill cut to two transformer blocks.
func prefill2Blk() *graph.Graph {
	cut := models.GPT2Small()
	cut.Layers = 2
	return models.GPT2Prefill(cut, 1)
}

// lfaWalk collects n candidates of a random LFA walk from the no-fusion
// start, moving to every candidate that parses.
func lfaWalk(e *Explorer, n int) []*core.Encoding {
	rng := newRand(3)
	cur := InitialEncoding(e.G, e.Cfg, e.Par.MinTile)
	var walk []*core.Encoding
	for len(walk) < n {
		cand := cur.Clone()
		if _, ok := e.mutateLFA(cand, rng); !ok {
			continue
		}
		walk = append(walk, cand)
		if _, err := core.Parse(e.G, cand); err == nil {
			cur = cand
		}
	}
	return walk
}

// TestStage1MissAllocs gates stage 1's allocations per cache miss: once the
// chain's arena and the FLG memo are warm, a miss - parse, tile costs,
// merge and metrics - allocates only the metrics it returns, on a CNN of a
// few dozen FLGs and on a prefill cut of thousands of tiles alike. Without
// a cache, as in the Cocco baseline, no lookup key is built.
func TestStage1MissAllocs(t *testing.T) {
	const limit = 1
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"ires", mustBuild(t, "ires")},
		{"gpt2s-prefill-2blk", prefill2Blk()},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := New(c.g, hw.Edge(), EDP(), FastParams())
			e.Cache = nil // every evaluation misses
			walk := lfaWalk(e, 200)
			var ev chainEval
			tiles := 0
			for _, enc := range walk {
				if _, err := e.evalEnc(enc, e.Cfg.GBufBytes, &ev); err == nil {
					s, _ := core.Parse(e.G, enc)
					tiles = max(tiles, s.NumTiles())
				}
			}
			i := 0
			allocs := testing.AllocsPerRun(len(walk), func() {
				e.evalEnc(walk[i%len(walk)], e.Cfg.GBufBytes, &ev)
				i++
			})
			if ev.key != nil {
				t.Errorf("built a %d-byte cache key with no cache", len(ev.key))
			}
			t.Logf("%.1f allocs per miss (up to %d tiles)", allocs, tiles)
			if allocs > limit {
				t.Errorf("%.1f allocs per stage-1 miss, limit %d", allocs, limit)
			}
		})
	}
}

// TestWarmStage1Allocs gates the cost of a stage-1 move on a warm cache,
// where every proposal is a hit (a repeat job on a warm daemon): the chain
// builds candidates and keys in reused buffers and each hit is written into
// the chain's own metrics, so a move allocates nothing and a run allocates
// only its set-up (56-66 times, 0.06-0.11 per move).
func TestWarmStage1Allocs(t *testing.T) {
	const limit = 0.125
	for _, name := range []string{"mobilenetv2", "resnet50", "gpt2s-decode"} {
		t.Run(name, func(t *testing.T) {
			e := New(mustBuild(t, name), hw.Edge(), EDP(), FastParams())
			budget := e.Cfg.GBufBytes
			_, res, err := e.RunStage1(context.Background(), budget, e.Par.Seed)
			if err != nil {
				t.Fatal(err)
			}
			moves := res.Stats.Total.Iterations
			misses := e.Cache.Stats().Misses
			allocs := testing.AllocsPerRun(3, func() {
				e.RunStage1(context.Background(), budget, e.Par.Seed)
			})
			if m := e.Cache.Stats().Misses; m != misses {
				t.Fatalf("the repeat runs missed the warm cache %d times", m-misses)
			}
			perMove := allocs / float64(moves)
			t.Logf("%.0f allocs per run, %.2f per move (%d moves)", allocs, perMove, moves)
			if perMove > limit {
				t.Errorf("%.2f allocs per warm stage-1 move, limit %g", perMove, limit)
			}
		})
	}
}

func mustBuild(t *testing.T, name string) *graph.Graph {
	t.Helper()
	g, err := models.Build(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// stage1Outcome runs stage 1 once and returns the winner's key and cost.
func stage1Outcome(t *testing.T, e *Explorer) (string, float64) {
	t.Helper()
	best, res, err := e.RunStage1(context.Background(), e.Cfg.GBufBytes, e.Par.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return best.CanonicalKey(), res.Cost
}

// TestStage1UnchangedByMemoEviction: a memo small enough to evict all the
// time changes nothing about stage 1's result.
func TestStage1UnchangedByMemoEviction(t *testing.T) {
	g := models.ResNet50(1)
	par := portfolioParams(1, 1)
	wantKey, wantCost := stage1Outcome(t, New(g, hw.Edge(), EDP(), par))

	e := New(g, hw.Edge(), EDP(), par)
	e.memo = core.NewFLGMemo(g, e.CS, 32<<10)
	key, cost := stage1Outcome(t, e)
	if st := e.memo.Stats(); st.Evictions == 0 {
		t.Fatalf("the memo never evicted (%+v)", st)
	}
	if key != wantKey || cost != wantCost {
		t.Fatalf("evicting memo: cost %v, want %v (winner equal: %v)", cost, wantCost, key == wantKey)
	}
}

// TestStage1ParallelChainsMatchSerial: two chains sharing the FLG memo and
// the evaluation cache from two goroutines find what they find serially
// (run it under -race).
func TestStage1ParallelChainsMatchSerial(t *testing.T) {
	g := prefill2Blk()
	var keys []string
	var costs []float64
	for _, workers := range []int{1, 2} {
		par := portfolioParams(2, workers)
		par.MinTile = 4
		key, cost := stage1Outcome(t, New(g, hw.Edge(), EDP(), par))
		keys, costs = append(keys, key), append(costs, cost)
	}
	if keys[0] != keys[1] || costs[0] != costs[1] {
		t.Fatalf("workers 1: cost %v; workers 2: cost %v (winner equal: %v)", costs[0], costs[1], keys[0] == keys[1])
	}
}
