package soma

import (
	"context"
	"math/rand"
	"time"

	"soma/internal/core"
	"soma/internal/sa"
	"soma/internal/sim"
)

// RunStage2 anneals the DLSA (Sec. V-C2) of a frozen LFA solution: the
// initial state is the double-buffer DLSA the parser installed; operators
// move a DRAM tensor to another legal order position (one that does not
// deadlock, see core.Schedule.MoveTensor) or jitter a Living Duration
// (Start for loads, End for stores). Tensors are selected with
// probability proportional to their size, as larger tensors move the needle
// more (paper rule). Stage 2 may use the whole GBUF: the allocator's budget
// split only constrains stage 1. Canceling ctx stops the annealer early and
// returns the incumbent; RunOnce turns that into ctx.Err() for its caller.
//
// The stage runs on the move-aware annealer with sim.Incremental underneath:
// every DLSA operator perturbs the schedule in place, cache misses simulate
// only the suffix of the schedule the move can affect, and rejected moves
// roll back without re-simulation. The rng draw sequence, the cache key
// stream, and the simulated metrics are all identical to the historical
// clone-and-replay implementation, so fixed-seed results are byte-stable
// across the switch.
func (e *Explorer) RunStage2(ctx context.Context, sched *core.Schedule, seed int64) (*core.Schedule, StageResult) {
	e.notify(Progress{Stage: "stage2", Kind: "start", AllocIter: e.allocIter,
		Budget: e.Cfg.GBufBytes})
	start := time.Now()
	span := e.Track.Start("stage2", "soma").Arg("alloc_iter", e.allocIter)
	defer func() {
		e.stage2WallNS += time.Since(start).Nanoseconds()
		span.End()
	}()
	iters := e.Par.Beta2 * len(sched.Tensors)
	if e.Par.Stage2MaxIters > 0 && iters > e.Par.Stage2MaxIters {
		iters = e.Par.Stage2MaxIters
	}
	picker := newSizePicker(sched)

	// Stage 2 never changes the tiles, so their costs are evaluated once
	// and reused across every candidate DLSA; the evaluation cache then
	// short-circuits revisited DLSA points entirely.
	tc := sim.PrecomputeTileCosts(sched, e.CS)
	cfg := sa.Config{T0: e.Par.T0, Alpha: e.Par.Alpha, Iters: iters, Seed: seed + 7919}
	pf := e.portfolio()
	pf.OnImprove = e.improveHook("stage2", cfg)
	pf.Journal = e.stageJournal("stage2")
	chains := make([]*stage2Moves, max(pf.Chains, 1))
	best, bestCost, stats := sa.RunMovesPortfolioCtx[*core.Schedule](ctx, cfg, pf,
		func(c int) sa.MoveState[*core.Schedule] {
			// Chains perturb their own schedule clone and incremental
			// evaluator; the tile costs, size picker and evaluation cache
			// are shared (all safe for concurrent use).
			chains[c] = newStage2Moves(e, sched.Clone(), picker, tc)
			return chains[c]
		})
	e.addSAStats("stage2", stats.Total)
	e.addIncStats(chains)
	// The winner's metrics: a cache hit, since the annealer scored it.
	m, err := sim.CachedEvaluate(e.Cache, best, e.CS,
		sim.Options{BufferBudget: e.Cfg.GBufBytes, CacheScope: e.Scope})
	if err != nil {
		m = nil
	}
	e.notify(Progress{Stage: "stage2", Kind: "done", AllocIter: e.allocIter, Cost: bestCost})
	return best, StageResult{Metrics: m, Cost: bestCost, Stats: stats}
}

// stage2Moves is the DLSA search's sa.MoveState: one in-place mutating
// schedule backed by an incremental evaluator, with every proposal memoized
// through the explorer's evaluation cache under the exact key the full
// evaluator would use. A cache hit skips even the suffix re-simulation; a
// miss runs sim.Incremental.EvaluateProposal as the eval callback.
type stage2Moves struct {
	e      *Explorer
	picker *sizePicker
	inc    *sim.Incremental
	// m receives each cache hit; the annealer only scores it.
	m sim.Metrics
	// kind names the operator the last productive Propose drew, for the
	// convergence journal's per-kind tallies (sa.MoveKinder).
	kind string
}

func newStage2Moves(e *Explorer, s *core.Schedule, picker *sizePicker, tc *sim.TileCosts) *stage2Moves {
	inc, err := sim.NewIncremental(s, e.CS, sim.Options{
		BufferBudget: e.Cfg.GBufBytes, TileCosts: tc, CacheScope: e.Scope})
	if err != nil {
		// Only reachable on tile-cost/schedule shape mismatch, which a
		// parse-derived schedule cannot produce.
		panic("soma: stage-2 incremental evaluator: " + err.Error())
	}
	return &stage2Moves{e: e, picker: picker, inc: inc}
}

// addIncStats adds the finished chains' incremental-evaluator counters
// (sim.IncStats) to the registry's sim_inc_* family. Like addSAStats, it
// adds in bulk once the chains are done, so proposals pay no atomics.
func (e *Explorer) addIncStats(chains []*stage2Moves) {
	if e.Reg == nil {
		return
	}
	var sum sim.IncStats
	for _, ms := range chains {
		st := ms.inc.Stats()
		sum.Proposals += st.Proposals
		sum.Resumed += st.Resumed
		sum.Fallbacks += st.Fallbacks
		sum.Rejoined += st.Rejoined
		sum.Rollbacks += st.Rollbacks
		sum.EventsTotal += st.EventsTotal
		sum.EventsSimulated += st.EventsSimulated
	}
	e.Reg.Counter("sim_inc_proposals_total",
		"Incremental-evaluator proposal evaluations.").Add(sum.Proposals)
	e.Reg.Counter("sim_inc_resumed_total",
		"Proposals resumed from a cached checkpoint.").Add(sum.Resumed)
	e.Reg.Counter("sim_inc_fallbacks_total",
		"Proposals re-simulated from scratch (no valid checkpoint).").Add(sum.Fallbacks)
	e.Reg.Counter("sim_inc_rejoined_total",
		"Resumed proposals stopped where they rejoined the accepted run.").Add(sum.Rejoined)
	e.Reg.Counter("sim_inc_rollbacks_total",
		"Rejected proposals rolled back in place.").Add(sum.Rollbacks)
	e.Reg.Counter("sim_inc_events_total",
		"Merge events a full evaluator would have replayed.").Add(sum.EventsTotal)
	e.Reg.Counter("sim_inc_events_simulated_total",
		"Merge events the proposals' runs simulated, up to a deadlock or a rejoin.").Add(sum.EventsSimulated)
}

func (ms *stage2Moves) InitCost() float64 {
	return ms.e.objective(sim.Memoize(ms.e.Cache, ms.inc.Key(), &ms.m, ms.inc.Metrics))
}

// Propose applies one random DLSA operator in place and evaluates it. The
// operator mix and its rng draw order replicate the historical mutateDLSA
// exactly (picker draw, operator coin, then the operator's own draws). An
// order move that would deadlock is refused before the key, the cache and
// the merge, and the draw is unproductive. While the incumbent is
// feasible the annealer rejects a deadlocked proposal's +Inf cost without
// drawing, so the search keeps its path. From a +Inf incumbent, which
// accepts +Inf proposals, the refusal keeps the walk off the deadlocking
// order move it would otherwise accept.
func (ms *stage2Moves) Propose(rng *rand.Rand) (float64, bool) {
	s := ms.inc.Schedule()
	if len(s.Tensors) == 0 {
		return 0, false
	}
	id := ms.picker.pick(rng)
	ok := false
	if rng.Intn(2) == 0 {
		// Change DRAM Tensor Order: move the tensor elsewhere.
		ms.kind = "move-tensor"
		ok = ms.inc.MoveTensor(ms.inc.PosOf(id), rng.Intn(len(s.Order)))
	} else {
		ms.kind = "duration"
		// Change Living Duration: jitter Start (loads) or End (stores).
		ok = ms.inc.SetLiving(id, s.Tensors[id].Living()+LivingJitter(s, rng))
	}
	if !ok {
		return 0, false
	}
	return ms.e.objective(sim.Memoize(ms.e.Cache, ms.inc.Key(), &ms.m, ms.inc.EvaluateProposal)), true
}

// LivingJitter draws the delta of stage 2's Living Duration operator: a
// magnitude of 1 to max(8, NumTiles/16) tiles, then a coin for its sign. The
// span scales with the schedule length so prefetches can reach far-away
// DRAM-idle windows on large tile sequences.
func LivingJitter(s *core.Schedule, rng *rand.Rand) int {
	delta := 1 + rng.Intn(max(s.NumTiles()/16, 8))
	if rng.Intn(2) == 0 {
		delta = -delta
	}
	return delta
}

func (ms *stage2Moves) Accept() { ms.inc.Accept() }
func (ms *stage2Moves) Reject() { ms.inc.Reject() }

// MoveKind implements sa.MoveKinder for the convergence journal.
func (ms *stage2Moves) MoveKind() string { return ms.kind }

// IncCounts implements sa.IncCountSource: the incremental evaluator's
// cumulative resumed/fallback proposal counts, journaled so convergence
// samples carry the incremental-vs-fallback ratio over the run. The split
// depends on shared-cache warmth, so it is deterministic only for serial
// runs (the counters never steer the search either way).
func (ms *stage2Moves) IncCounts() (resumed, fallbacks int64) {
	st := ms.inc.Stats()
	return st.Resumed, st.Fallbacks
}

// Snapshot clones the live schedule: the annealer retains it as the
// incumbent while the state keeps mutating.
func (ms *stage2Moves) Snapshot() *core.Schedule { return ms.inc.Schedule().Clone() }

// sizePicker samples tensor IDs proportionally to their byte size.
type sizePicker struct {
	cum []int64
}

func newSizePicker(s *core.Schedule) *sizePicker {
	cum := make([]int64, len(s.Tensors))
	var acc int64
	for i := range s.Tensors {
		acc += s.Tensors[i].Bytes
		cum[i] = acc
	}
	return &sizePicker{cum: cum}
}

func (p *sizePicker) pick(rng *rand.Rand) int {
	total := p.cum[len(p.cum)-1]
	if total <= 0 {
		return rng.Intn(len(p.cum))
	}
	x := rng.Int63n(total)
	lo, hi := 0, len(p.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cum[mid] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
