package soma

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"soma/internal/core"
	"soma/internal/graph"
	"soma/internal/hw"
	"soma/internal/obs"
	"soma/internal/sa"
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
	ms := newStage2Moves(e, s, newSizePicker(s), sim.PrecomputeTileCosts(s, e.CS))
	check := func(step int) {
		t.Helper()
		want := sim.Key(e.Scope+s.CanonicalKey(), e.Cfg.GBufBytes)
		if got := string(ms.inc.Key()); got != want {
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
// times (the proposal's Metrics, the cache entry holding a copy of it,
// the entry's copy of the key and, for a Living Duration move that
// deadlocks, its error; an order move that would deadlock is refused before
// any of these), on a CNN of about 500 tensors and on a prefill cut of
// about 1,800 alike.
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
			ms := newStage2Moves(e, s, newSizePicker(s), sim.PrecomputeTileCosts(s, e.CS))
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

// TestStage2IncCounters: once a stage-2 run returns, each sim_inc_* counter
// holds the sum of its chains' sim.IncStats. Two explorers on fresh caches
// run the same serial fixed-seed portfolio: one through RunStage2 with a
// registry, the other chain by chain so the test can read each chain's
// evaluator.
func TestStage2IncCounters(t *testing.T) {
	g := testNet(t)
	par := FastParams()
	par.Chains, par.Workers = 3, 1
	s, err := core.Parse(g, core.DefaultEncoding(g, 2))
	if err != nil {
		t.Fatal(err)
	}
	const seed = 11

	e := New(g, hw.Edge(), EDP(), par)
	e.Reg = obs.NewRegistry()
	_, res := e.RunStage2(context.Background(), s.Clone(), seed)

	ref := New(g, hw.Edge(), EDP(), par)
	tc := sim.PrecomputeTileCosts(s, ref.CS)
	chains := make([]*stage2Moves, par.Chains)
	cfg := sa.Config{T0: par.T0, Alpha: par.Alpha,
		Iters: min(par.Beta2*len(s.Tensors), par.Stage2MaxIters), Seed: seed + 7919}
	_, cost, _ := sa.RunMovesPortfolioCtx[*core.Schedule](context.Background(), cfg, ref.portfolio(),
		func(c int) sa.MoveState[*core.Schedule] {
			chains[c] = newStage2Moves(ref, s.Clone(), newSizePicker(s), tc)
			return chains[c]
		})
	if cost != res.Cost {
		t.Fatalf("reference portfolio cost %g, RunStage2 %g", cost, res.Cost)
	}
	var want sim.IncStats
	for _, ms := range chains {
		st := ms.inc.Stats()
		want.Proposals += st.Proposals
		want.Resumed += st.Resumed
		want.Fallbacks += st.Fallbacks
		want.Rejoined += st.Rejoined
		want.Rollbacks += st.Rollbacks
		want.EventsTotal += st.EventsTotal
		want.EventsSimulated += st.EventsSimulated
	}
	if want.Proposals == 0 || want.Rollbacks == 0 || want.Rejoined == 0 {
		t.Fatalf("stage 2 made no proposals, rollbacks or rejoins: %+v", want)
	}
	if want.Rollbacks != int64(res.Stats.Total.Rejected) {
		t.Errorf("rollbacks %d, annealer rejections %d", want.Rollbacks, res.Stats.Total.Rejected)
	}
	for name, v := range map[string]int64{
		"sim_inc_proposals_total":        want.Proposals,
		"sim_inc_resumed_total":          want.Resumed,
		"sim_inc_fallbacks_total":        want.Fallbacks,
		"sim_inc_rejoined_total":         want.Rejoined,
		"sim_inc_rollbacks_total":        want.Rollbacks,
		"sim_inc_events_total":           want.EventsTotal,
		"sim_inc_events_simulated_total": want.EventsSimulated,
	} {
		if got := e.Reg.Counter(name, "").Value(); got != v {
			t.Errorf("%s = %d, chains' IncStats sum %d", name, got, v)
		}
	}

	// Chains on several goroutines: which proposals hit the shared cache
	// depends on scheduling, but every rejection is still one rollback.
	par.Workers = 3
	pe := New(g, hw.Edge(), EDP(), par)
	pe.Reg = obs.NewRegistry()
	_, pres := pe.RunStage2(context.Background(), s.Clone(), seed)
	if got := pe.Reg.Counter("sim_inc_rollbacks_total", "").Value(); got != int64(pres.Stats.Total.Rejected) {
		t.Errorf("parallel chains: %d rollbacks, annealer rejections %d", got, pres.Stats.Total.Rejected)
	}
}

// orderChecked is a stage-2 chain that notes, for each accepted move,
// whether it turned an order OrderValid accepts into one it refuses.
type orderChecked struct {
	*stage2Moves
	validBefore bool
	// fromValid counts accepted moves by kind that started on a valid
	// order, broken those that left it invalid.
	fromValid, broken map[string]int
}

func (c *orderChecked) Propose(rng *rand.Rand) (float64, bool) {
	c.validBefore = c.inc.Schedule().OrderValid()
	return c.stage2Moves.Propose(rng)
}

func (c *orderChecked) Accept() {
	c.stage2Moves.Accept()
	if c.validBefore {
		c.fromValid[c.kind]++
		if !c.inc.Schedule().OrderValid() {
			c.broken[c.kind]++
		}
	}
}

// TestStage2InfeasibleStart: stage 2 also runs when its start overflows the
// buffer. From a +Inf incumbent the annealer accepts every evaluated
// proposal, +Inf ones included (cc <= curCost), so an order move that
// deadlocks would be accepted if it were evaluated. MoveTensor refuses it
// instead: this is the one case where the refusal changes the search path,
// since from a feasible incumbent a deadlocked proposal is always rejected.
// The walk still reaches deadlocked states through Living Duration moves,
// which are evaluated and, from +Inf, accepted as before.
func TestStage2InfeasibleStart(t *testing.T) {
	g := testNet(t)
	cfg := hw.Edge()
	cfg.GBufBytes = 1 << 10 // 1 KB: every DLSA overflows
	e := New(g, cfg, EDP(), FastParams())
	s, err := core.Parse(g, core.DefaultEncoding(g, 2))
	if err != nil {
		t.Fatal(err)
	}
	ms := &orderChecked{stage2Moves: newStage2Moves(e, s, newSizePicker(s), sim.PrecomputeTileCosts(s, e.CS)),
		fromValid: map[string]int{}, broken: map[string]int{}}
	sc := sa.Config{T0: e.Par.T0, Alpha: e.Par.Alpha, Iters: 2000, Seed: 5}
	_, cost, stats := sa.RunMovesPortfolioCtx[*core.Schedule](context.Background(), sc, sa.PortfolioConfig{},
		func(int) sa.MoveState[*core.Schedule] { return ms })
	if !math.IsInf(cost, 1) {
		t.Fatalf("best cost %g, want +Inf on a 1 KB buffer", cost)
	}
	st := stats.Total
	t.Logf("%d draws, %d accepted, %d unproductive; from a valid order: %v accepted, %v of them broke it",
		st.Iterations, st.Accepted, st.Iterations-st.Accepted-st.Rejected, ms.fromValid, ms.broken)
	if st.Rejected != 0 {
		t.Errorf("%d proposals rejected from a +Inf incumbent, want 0", st.Rejected)
	}
	if n := ms.broken["move-tensor"]; n != 0 {
		t.Errorf("%d accepted order moves deadlocked a valid order", n)
	}
	if ms.fromValid["move-tensor"] == 0 || ms.broken["duration"] == 0 {
		t.Error("the walk accepted no order move on a valid order, or no deadlocking Living move")
	}
}

// TestWarmStage2Allocs gates the cost of a stage-2 move on a warm cache,
// where every proposal is a hit (a repeat job on a warm daemon): the live
// key is edited in place and each hit is written into the chain's own
// metrics, so a move allocates nothing and a run allocates only its
// set-up - schedule clones, the incremental evaluator and its key, the
// incumbent snapshots - and the winner's re-evaluation (44-55 times,
// 0.07-0.31 per move).
func TestWarmStage2Allocs(t *testing.T) {
	const limit = 0.35
	for _, name := range []string{"mobilenetv2", "resnet50", "gpt2s-decode"} {
		t.Run(name, func(t *testing.T) {
			e := New(mustBuild(t, name), hw.Edge(), EDP(), FastParams())
			enc, _, err := e.RunStage1(context.Background(), e.Cfg.GBufBytes, e.Par.Seed)
			if err != nil {
				t.Fatal(err)
			}
			s, err := core.Parse(e.G, enc)
			if err != nil {
				t.Fatal(err)
			}
			_, res := e.RunStage2(context.Background(), s, e.Par.Seed)
			moves := res.Stats.Total.Iterations
			misses := e.Cache.Stats().Misses
			allocs := testing.AllocsPerRun(3, func() {
				e.RunStage2(context.Background(), s, e.Par.Seed)
			})
			if m := e.Cache.Stats().Misses; m != misses {
				t.Fatalf("the repeat runs missed the warm cache %d times", m-misses)
			}
			perMove := allocs / float64(moves)
			t.Logf("%.0f allocs per run, %.3f per move (%d moves)", allocs, perMove, moves)
			if perMove > limit {
				t.Errorf("%.3f allocs per warm stage-2 move, limit %g", perMove, limit)
			}
		})
	}
}

// TestZeroCapsUncapped: a stage cap <= 0 leaves the stage uncapped, so each
// stage runs its full beta x size budget instead of zero moves.
func TestZeroCapsUncapped(t *testing.T) {
	g := testNet(t)
	par := FastParams()
	par.Beta1, par.Beta2 = 3, 2
	par.Stage1MaxIters, par.Stage2MaxIters = 0, 0
	e := New(g, hw.Edge(), EDP(), par)
	enc, r1, err := e.RunStage1(context.Background(), e.Cfg.GBufBytes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := par.Beta1 * len(enc.Order); r1.Stats.Total.Iterations != want {
		t.Errorf("stage 1 ran %d moves, want %d", r1.Stats.Total.Iterations, want)
	}
	s, err := core.Parse(g, enc)
	if err != nil {
		t.Fatal(err)
	}
	_, r2 := e.RunStage2(context.Background(), s, 1)
	if want := par.Beta2 * len(s.Tensors); r2.Stats.Total.Iterations != want {
		t.Errorf("stage 2 ran %d moves, want %d", r2.Stats.Total.Iterations, want)
	}
}
