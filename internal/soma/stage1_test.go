package soma

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"soma/internal/core"
	"soma/internal/graph"
	"soma/internal/hw"
	"soma/internal/models"
	"soma/internal/obs"
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
// merge and metrics, resumed from the candidate accepted before it -
// allocates only the metrics it returns, on a CNN of a few dozen FLGs and
// on a prefill cut of thousands of tiles alike. Without a cache, as in the
// Cocco baseline, no lookup key is built.
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
			// Like a chain that accepts every candidate that lowers.
			eval := func(enc *core.Encoding) error {
				_, err := e.evalEnc(enc, e.Cfg.GBufBytes, &ev)
				if err == nil {
					ev.accept()
				}
				return err
			}
			tiles := 0
			for _, enc := range walk {
				if eval(enc) == nil {
					s, _ := core.Parse(e.G, enc)
					tiles = max(tiles, s.NumTiles())
				}
			}
			before := ev.arena.Stats()
			i := 0
			allocs := testing.AllocsPerRun(len(walk), func() {
				eval(walk[i%len(walk)])
				i++
			})
			if ev.key != nil {
				t.Errorf("built a %d-byte cache key with no cache", len(ev.key))
			}
			st := ev.arena.Stats()
			resumed, folded := st.Resumed-before.Resumed, st.Folded-before.Folded
			if resumed == 0 {
				t.Error("no timed miss resumed")
			}
			t.Logf("%.1f allocs per miss (up to %d tiles); %d of %d misses resumed, %.0f%% of tiles folded",
				allocs, tiles, resumed, st.Evals-before.Evals, 100*float64(folded)/float64(st.Tiles-before.Tiles))
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

// TestStage1ArenaCounters: once a stage-1 run returns, the sim_arena_*
// counters reconcile with its walk. With a cache, every arena evaluation is
// one of the stage's cache misses. Without one, as in the Cocco baseline,
// every chain's initial state and every productive proposal is an arena
// evaluation, and sim_arena_tiles_total sums the tiles of those that lower,
// which a mutate hook records. The folded tiles stay below that sum once
// evaluations resume. The hook also sees each proposal's chain state, which
// without a cache is the encoding the chain's arena keeps: no lowering looks
// up more FLG plans than the FLGs the proposal changed (those not shared
// with the state at its front or back), and the layers bookkept are, per
// proposal that lowers, those from the start of the LG holding its first
// changed FLG, and every layer for a chain's initial state.
func TestStage1ArenaCounters(t *testing.T) {
	g := mustBuild(t, "mobilenetv2")
	par := portfolioParams(2, 1)
	ctx := context.Background()
	type counts struct{ evals, resumed, tiles, folded, lookups, bookkept int64 }
	counters := func(e *Explorer) counts {
		c := func(name string) int64 { return e.Reg.Counter(name, "").Value() }
		return counts{c("sim_arena_evals_total"), c("sim_arena_resumed_total"),
			c("sim_arena_tiles_total"), c("sim_arena_tiles_folded_total"),
			c("sim_arena_memo_lookups_total"), c("sim_arena_layers_bookkept_total")}
	}

	e := New(g, hw.Edge(), EDP(), par)
	e.Reg = obs.NewRegistry()
	before := e.Cache.Stats().Misses
	if _, _, err := e.RunStage1(ctx, e.Cfg.GBufBytes, e.Par.Seed); err != nil {
		t.Fatal(err)
	}
	got := counters(e)
	if misses := e.Cache.Stats().Misses - before; got.evals != misses {
		t.Errorf("cached: %d arena evaluations, %d cache misses", got.evals, misses)
	}
	if got.resumed == 0 || got.resumed > got.evals || got.folded >= got.tiles {
		t.Errorf("cached: %d of %d evaluations resumed, %d of %d tiles folded", got.resumed, got.evals, got.folded, got.tiles)
	}
	if n := int64(len(g.ComputeLayers())); got.bookkept == 0 || got.bookkept >= got.evals*n {
		t.Errorf("cached: %d layers bookkept over %d evaluations of %d layers", got.bookkept, got.evals, n)
	}

	u := New(g, hw.Edge(), EDP(), par)
	u.Cache, u.Reg = nil, obs.NewRegistry()
	init := InitialEncoding(u.G, u.Cfg, u.Par.MinTile)
	var want counts
	count := func(base, enc *core.Encoding) {
		want.evals++
		front, back := sharedFLGs(base, enc)
		want.lookups += int64(enc.NumFLGs() - front - back)
		if s, err := core.Parse(g, enc); err == nil {
			want.tiles += int64(s.NumTiles())
			want.bookkept += int64(len(enc.Order) - lgStart(enc, front))
		}
	}
	for c := 0; c < par.Chains; c++ {
		count(&core.Encoding{}, init)
	}
	base := &core.Encoding{}
	mutate := func(c *core.Encoding, rng *rand.Rand) (string, bool) {
		base.CopyFrom(c) // the chain's state
		kind, ok := u.mutateLFA(c, rng)
		if ok {
			count(base, c)
		}
		return kind, ok
	}
	_, res, err := u.AnnealLFA(ctx, "stage1", init, u.Cfg.GBufBytes, u.Par.Seed, mutate)
	if err != nil {
		t.Fatal(err)
	}
	got = counters(u)
	if got.evals != want.evals || got.tiles != want.tiles {
		t.Errorf("uncached: %d evaluations of %d tiles, the walk made %d of %d", got.evals, got.tiles, want.evals, want.tiles)
	}
	if st := res.Stats.Total; got.evals != int64(st.Accepted+st.Rejected+par.Chains) {
		t.Errorf("uncached: %d evaluations, the annealer scored %d proposals and %d initial states",
			got.evals, st.Accepted+st.Rejected, par.Chains)
	}
	if got.resumed == 0 || got.folded >= got.tiles {
		t.Errorf("uncached: %d of %d evaluations resumed, %d of %d tiles folded", got.resumed, got.evals, got.folded, got.tiles)
	}
	if got.lookups > want.lookups || got.bookkept != want.bookkept {
		t.Errorf("uncached: %d FLG plans looked up and %d layers bookkept; the proposals changed %d FLGs and %d layers from their first changed LG on",
			got.lookups, got.bookkept, want.lookups, want.bookkept)
	}
	t.Logf("uncached: %d of %d evaluations resumed, %.0f%% of tiles folded, %.2f FLG plans looked up per evaluation, %.0f%% of layers bookkept",
		got.resumed, got.evals, 100*float64(got.folded)/float64(got.tiles), float64(got.lookups)/float64(got.evals),
		100*float64(got.bookkept)/float64(got.evals*int64(len(init.Order))))
}

// sharedFLGs counts the FLGs y shares with x at its front - the same layers,
// tiling number and closing cut - and, after those, at its back - the same
// layers and tiling number at the same order positions.
func sharedFLGs(x, y *core.Encoding) (front, back int) {
	same := func(fx, fy int) bool {
		lx, hx := x.FLGBounds(fx)
		ly, hy := y.FLGBounds(fy)
		return lx == ly && hx == hy && x.Tile[fx] == y.Tile[fy] &&
			slices.Equal(x.Order[lx:hx], y.Order[ly:hy])
	}
	nx, ny := x.NumFLGs(), y.NumFLGs()
	if len(x.Order) == 0 {
		return 0, 0
	}
	for front < min(nx, ny) && same(front, front) &&
		(front == nx-1) == (front == ny-1) && (front == nx-1 || x.IsDRAM[front] == y.IsDRAM[front]) {
		front++
	}
	for back < min(nx, ny-front) && same(nx-1-back, ny-1-back) {
		back++
	}
	return front, back
}

// lgStart returns the order position where the LG holding FLG f of e
// begins, or the order's length when f is past the last FLG.
func lgStart(e *core.Encoding, f int) int {
	if f >= e.NumFLGs() {
		return len(e.Order)
	}
	for f > 0 && !e.IsDRAM[f-1] {
		f--
	}
	lo, _ := e.FLGBounds(f)
	return lo
}
