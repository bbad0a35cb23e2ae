package soma

import (
	"context"
	"math"
	"math/rand"
	"time"

	"soma/internal/core"
	"soma/internal/sa"
	"soma/internal/sim"
)

// encKeyPrefix separates encoding-level cache entries from schedule-level
// ones (an encoding key is a strict prefix of its schedules' keys).
const encKeyPrefix = "enc:"

// RunStage1 anneals the LFA (Sec. V-C1). The initial solution is the
// no-fusion encoding (every layer its own FLG and LG) at minimum tiling
// granularity; the DLSA stays the classical double-buffer strategy during
// this stage. Operators: change computing order, multiply/divide an FLG's
// tiling number by two, add/delete an FLC, add/delete a DRAM cut.
// With Params.Chains > 1 the stage runs a portfolio of independently seeded
// chains and keeps the best incumbent. Canceling ctx aborts the stage with
// ctx.Err().
func (e *Explorer) RunStage1(ctx context.Context, budget int64, seed int64) (*core.Encoding, StageResult, error) {
	return e.AnnealLFA(ctx, "stage1", InitialEncoding(e.G, e.Cfg, e.Par.MinTile), budget, seed, e.mutateLFA)
}

// AnnealLFA is the stage-1 search over LFA encodings, the one annealer of
// every LFA subspace: it anneals from init under the buffer budget, drawing
// each candidate with mutate - which applies one random operator to an
// encoding in place and names it, reporting false for an unproductive draw -
// and scoring it under the double-buffer DLSA. stage labels the search's
// progress events, trace span, best-cost samples, move counters and journal
// series. A portfolio of Params.Chains chains runs from seed, seed+1, ...;
// each chain mutates a private copy of init. The winner's metrics are
// re-evaluated; ErrNoFeasible reports a search that visited nothing
// feasible, and canceling ctx aborts it with ctx.Err().
func (e *Explorer) AnnealLFA(ctx context.Context, stage string, init *core.Encoding, budget, seed int64,
	mutate func(*core.Encoding, *rand.Rand) (string, bool)) (*core.Encoding, StageResult, error) {
	e.notify(Progress{Stage: stage, Kind: "start", AllocIter: e.allocIter, Budget: budget})
	start := time.Now()
	span := e.Track.Start(stage, "soma").
		Arg("alloc_iter", e.allocIter).Arg("budget", budget)
	defer func() {
		e.stage1WallNS += time.Since(start).Nanoseconds()
		span.End()
	}()
	iters := e.Par.Beta1 * len(init.Order)
	if e.Par.Stage1MaxIters > 0 && iters > e.Par.Stage1MaxIters {
		iters = e.Par.Stage1MaxIters
	}

	cfg := sa.Config{T0: e.Par.T0, Alpha: e.Par.Alpha, Iters: iters, Seed: seed}
	pf := e.portfolio()
	pf.OnImprove = e.improveHook(stage, cfg)
	pf.Journal = e.stageJournal(stage)
	chains := make([]*lfaMoves, max(pf.Chains, 1))
	best, bestCost, stats := sa.RunMovesPortfolioCtx[*core.Encoding](ctx, cfg, pf,
		func(c int) sa.MoveState[*core.Encoding] {
			chains[c] = &lfaMoves{e: e, budget: budget, mutate: mutate, cur: init.Clone(),
				cand: &core.Encoding{}, best: &core.Encoding{},
				ev: chainEval{m: new(sim.Metrics)}}
			return chains[c]
		})
	e.addSAStats(stage, stats.Total)
	e.addArenaStats(chains)
	if err := ctx.Err(); err != nil {
		return nil, StageResult{}, err
	}
	if math.IsInf(bestCost, 1) {
		e.notify(Progress{Stage: stage, Kind: "done", AllocIter: e.allocIter, Cost: bestCost})
		return nil, StageResult{}, ErrNoFeasible
	}
	var ev chainEval // no hit storage: the winner's metrics are retained
	m, err := e.evalEnc(best, budget, &ev)
	if err != nil {
		return nil, StageResult{}, err
	}
	c := e.objective(m, nil)
	e.notify(Progress{Stage: stage, Kind: "done", AllocIter: e.allocIter, Cost: c})
	return best, StageResult{Metrics: m, Cost: c, Stats: stats}, nil
}

// chainEval is one chain's stage-1 evaluation storage: the arena its cache
// misses are evaluated in, built on first use, the buffer each lookup key
// is built in, and the metrics a cache hit is written into (nil: each hit
// gets a fresh copy). missed reports whether the last evaluation ran in the
// arena rather than hitting the cache.
type chainEval struct {
	arena  *sim.Arena
	key    []byte
	m      *sim.Metrics
	missed bool
}

// accept makes the chain's arena resume later misses from the encoding the
// last evaluation scored, when the arena scored it. An encoding accepted
// from a cache hit has no checkpoints, so the arena keeps resuming from the
// last miss it accepted, which its checkpoints still describe.
func (ev *chainEval) accept() {
	if ev.missed {
		ev.arena.Accept()
	}
}

// evalEnc evaluates an encoding under a stage-1 budget. It is keyed on the
// encoding so cache hits skip the lowering as well as the evaluation:
// every revisited LFA point - re-proposed moves, the shared initial solution
// of a portfolio, the winner's re-evaluation - costs one map lookup. The key,
// sim.Key(Scope+encKeyPrefix+CanonicalKey, budget), is built in ev.key and
// looked up as bytes: the cache copies it only to insert a miss. A hit is
// written into ev.m, valid until ev's next evaluation; a miss is evaluated
// in ev's arena, so a chain whose lookups all hit builds none. Without a
// cache (the Cocco baseline) no key is built.
func (e *Explorer) evalEnc(enc *core.Encoding, budget int64, ev *chainEval) (*sim.Metrics, error) {
	ev.missed = false
	eval := func() (*sim.Metrics, error) {
		if ev.arena == nil {
			ev.arena = sim.NewArena(e.G, e.CS, e.flgMemo())
		}
		ev.missed = true
		return ev.arena.Evaluate(enc, sim.Options{BufferBudget: budget})
	}
	if e.Cache == nil {
		return eval()
	}
	k := append(ev.key[:0], e.Scope...)
	k = append(k, encKeyPrefix...)
	k = sim.AppendBudget(enc.AppendKey(k), budget)
	ev.key = k
	return sim.Memoize(e.Cache, k, ev.m, eval)
}

// addArenaStats adds the finished chains' arena counters (sim.ArenaStats)
// to the registry's sim_arena_* family, in bulk like addIncStats.
func (e *Explorer) addArenaStats(chains []*lfaMoves) {
	if e.Reg == nil {
		return
	}
	var sum sim.ArenaStats
	for _, m := range chains {
		if m == nil || m.ev.arena == nil {
			continue
		}
		st := m.ev.arena.Stats()
		sum.Evals += st.Evals
		sum.Resumed += st.Resumed
		sum.Tiles += st.Tiles
		sum.Folded += st.Folded
		sum.Lookups += st.Lookups
		sum.Bookkept += st.Bookkept
	}
	e.Reg.Counter("sim_arena_evals_total",
		"Stage-1 cache misses the chains' arenas evaluated.").Add(sum.Evals)
	e.Reg.Counter("sim_arena_resumed_total",
		"Stage-1 arena evaluations resumed from an LG checkpoint after tile 0.").Add(sum.Resumed)
	e.Reg.Counter("sim_arena_tiles_total",
		"Tiles the stage-1 arena evaluations would fold from tile 0.").Add(sum.Tiles)
	e.Reg.Counter("sim_arena_tiles_folded_total",
		"Tiles the stage-1 arena evaluations folded.").Add(sum.Folded)
	e.Reg.Counter("sim_arena_memo_lookups_total",
		"FLG plans the stage-1 arena lowerings took from the FLG memo.").Add(sum.Lookups)
	e.Reg.Counter("sim_arena_layers_bookkept_total",
		"Layers whose bookkeeping the stage-1 arena lowerings recomputed.").Add(sum.Bookkept)
}

// flgMemo returns the FLG memo the explorer's stage-1 chains share across
// allocator iterations, building it on first use.
func (e *Explorer) flgMemo() *core.FLGMemo {
	e.memoMu.Lock()
	defer e.memoMu.Unlock()
	if e.memo == nil {
		e.memo = core.NewFLGMemo(e.G, e.CS, core.DefaultFLGMemoBytes)
	}
	return e.memo
}

// lfaMoves adapts an LFA operator (mutate) to the move-aware annealer,
// tagging each productive proposal with its operator kind for the
// convergence journal. It owns three encodings: cur, the accepted state;
// cand, which each Propose overwrites with cur and mutates; and best, the
// copy Snapshot returns. Accept swaps cur and cand, so a chain allocates
// only while its encodings grow. Only the operator draws from the rng
// before the annealer's acceptance draw, so reusing cand changes no
// fixed-seed result. The initial state and every accepted candidate that
// missed the cache become the base the chain's arena resumes from.
type lfaMoves struct {
	e               *Explorer
	budget          int64
	mutate          func(*core.Encoding, *rand.Rand) (string, bool)
	cur, cand, best *core.Encoding
	ev              chainEval
	kind            string
}

// cost scores an encoding, +Inf when it is illegal or over budget.
func (m *lfaMoves) cost(enc *core.Encoding) float64 {
	return m.e.objective(m.e.evalEnc(enc, m.budget, &m.ev))
}

func (m *lfaMoves) InitCost() float64 {
	c := m.cost(m.cur)
	m.ev.accept()
	return c
}

func (m *lfaMoves) Propose(rng *rand.Rand) (float64, bool) {
	m.cand.CopyFrom(m.cur)
	kind, ok := m.mutate(m.cand, rng)
	if !ok {
		return 0, false
	}
	m.kind = kind
	return m.cost(m.cand), true
}

func (m *lfaMoves) Accept() {
	m.cur, m.cand = m.cand, m.cur
	m.ev.accept()
}
func (m *lfaMoves) Reject() {}

// Snapshot copies the accepted state into the chain's best buffer; the
// annealer keeps only the latest snapshot.
func (m *lfaMoves) Snapshot() *core.Encoding {
	m.best.CopyFrom(m.cur)
	return m.best
}

func (m *lfaMoves) MoveKind() string { return m.kind }

// mutateLFA applies one random LFA operator to c in place and names the
// operator drawn (the journal's per-kind accept/reject tallies). c is
// scratch: an unproductive draw (false) may leave it changed.
func (e *Explorer) mutateLFA(c *core.Encoding, rng *rand.Rand) (string, bool) {
	n := len(c.Order)
	switch rng.Intn(5) {
	case 0: // Change Computing Order: move a random layer somewhere legal.
		return "order", c.MoveLayer(e.G, rng.Intn(n), rng.Intn(n))
	case 1: // Change Tiling Number: x2 or /2 on a random FLG.
		if e.Par.Ablate.NoTiling {
			return "tile", false
		}
		f := rng.Intn(c.NumFLGs())
		if rng.Intn(2) == 0 {
			c.Tile[f] *= 2
			// Cap at the FLG's realizable tile count to keep the
			// space bounded.
			if c.Tile[f] > maxTiles(e, c, f) {
				return "tile", false
			}
		} else {
			if c.Tile[f] <= 1 {
				return "tile", false
			}
			c.Tile[f] /= 2
		}
		return "tile", true
	case 2: // Add an FLC at a random uncut position.
		if n < 2 {
			return "add-flc", false // one layer: no position to cut
		}
		p := 1 + rng.Intn(n-1)
		ok := c.AddFLC(p)
		if ok && e.Par.Ablate.NoFLC {
			// Ablation: every cut must also be a DRAM cut.
			for i, cut := range c.FLCs {
				if cut == p {
					c.IsDRAM[i] = true
				}
			}
		}
		return "add-flc", ok
	case 3: // Delete an FLC; the merged FLG inherits a tiling number
		// probabilistically by layer-count ratio (paper rule).
		if len(c.FLCs) == 0 {
			return "del-flc", false
		}
		i := rng.Intn(len(c.FLCs))
		loA, hiA := c.FLGBounds(i)
		_, hiB := c.FLGBounds(i + 1)
		tile := c.Tile[i]
		if rng.Intn(hiB-loA) >= hiA-loA {
			tile = c.Tile[i+1]
		}
		return "del-flc", c.RemoveFLC(i, tile)
	default: // Add/Delete a DRAM cut (the added one must be an FLC).
		if len(c.FLCs) == 0 || e.Par.Ablate.NoFLC {
			return "dram-cut", false
		}
		i := rng.Intn(len(c.FLCs))
		c.IsDRAM[i] = !c.IsDRAM[i]
		return "dram-cut", true
	}
}

// maxTiles bounds an FLG's useful tiling number by the smallest layer shape
// in the group (finer splits produce empty tiles).
func maxTiles(e *Explorer, c *core.Encoding, f int) int {
	minN, minH, minW := math.MaxInt32, math.MaxInt32, math.MaxInt32
	for _, id := range c.FLGLayers(f) {
		s := e.G.Layer(id).Out
		minN = min(minN, s.N)
		minH = min(minH, s.H)
		minW = min(minW, s.W)
	}
	return minN * minH * minW
}
