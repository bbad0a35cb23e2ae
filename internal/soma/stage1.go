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
	e.notify(Progress{Stage: "stage1", Kind: "start", AllocIter: e.allocIter, Budget: budget})
	start := time.Now()
	span := e.Track.Start("stage1", "soma").
		Arg("alloc_iter", e.allocIter).Arg("budget", budget)
	defer func() {
		e.stage1WallNS += time.Since(start).Nanoseconds()
		span.End()
	}()
	init := InitialEncoding(e.G, e.Cfg, e.Par.MinTile)
	iters := e.Par.Beta1 * len(init.Order)
	if e.Par.Stage1MaxIters > 0 && iters > e.Par.Stage1MaxIters {
		iters = e.Par.Stage1MaxIters
	}

	cfg := sa.Config{T0: e.Par.T0, Alpha: e.Par.Alpha, Iters: iters, Seed: seed,
		Telemetry: sa.NewTelemetry(e.Reg, "stage1")}
	pf := e.portfolio()
	pf.OnImprove = e.improveHook("stage1")
	pf.Journal = e.stageJournal("stage1")
	best, bestCost, stats := sa.RunMovesPortfolioCtx[*core.Encoding](ctx, cfg, pf,
		func(int) sa.MoveState[*core.Encoding] {
			// Encodings are value-like (mutateLFAKind clones before
			// mutating), so every chain may start from the shared init; each
			// adapter instance is still private to its chain. The rng draw
			// order is exactly the historical clone interface's.
			return &lfaMoves{e: e, budget: budget, cur: init}
		})
	if err := ctx.Err(); err != nil {
		return nil, StageResult{}, err
	}
	if math.IsInf(bestCost, 1) {
		e.notify(Progress{Stage: "stage1", Kind: "done", AllocIter: e.allocIter, Cost: bestCost})
		return nil, StageResult{}, ErrNoFeasible
	}
	var arena *sim.Arena
	m, err := e.evalEnc(best, budget, &arena)
	if err != nil {
		return nil, StageResult{}, err
	}
	c := math.Inf(1)
	if m.BufferOK {
		c = m.Cost(e.Obj.N, e.Obj.M)
	}
	e.notify(Progress{Stage: "stage1", Kind: "done", AllocIter: e.allocIter, Cost: c})
	return best, StageResult{Metrics: m, Cost: c, Stats: stats}, nil
}

// evalEnc evaluates an encoding under a stage-1 budget. It is keyed on the
// encoding so cache hits skip the lowering as well as the evaluation:
// every revisited LFA point - re-proposed moves, the shared initial solution
// of a portfolio, the winner's re-evaluation - costs one map lookup. A miss
// is evaluated in *arena, the calling chain's, which it builds on first
// use: a chain whose lookups all hit allocates none.
func (e *Explorer) evalEnc(enc *core.Encoding, budget int64, arena **sim.Arena) (*sim.Metrics, error) {
	return sim.Memoize(e.Cache, sim.Key(e.Scope+encKeyPrefix+enc.CanonicalKey(), budget),
		func() (*sim.Metrics, error) {
			if *arena == nil {
				*arena = sim.NewArena(e.G, e.CS, e.flgMemo())
			}
			return (*arena).Evaluate(enc, sim.Options{BufferBudget: budget})
		})
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

// lfaMoves adapts the stage-1 clone-per-candidate mutator to the move-aware
// annealer, tagging each productive proposal with its operator kind for the
// convergence journal. Its rng draw sequence is exactly the historical clone
// interface's (the operator's draws, then the annealer's acceptance draw),
// so fixed-seed results are byte-stable across the switch.
type lfaMoves struct {
	e         *Explorer
	budget    int64
	cur, cand *core.Encoding
	// arena is the chain's evaluation storage for cache misses.
	arena *sim.Arena
	kind  string
}

// cost scores an encoding, +Inf when it is illegal or over budget.
func (m *lfaMoves) cost(enc *core.Encoding) float64 {
	met, err := m.e.evalEnc(enc, m.budget, &m.arena)
	if err != nil || !met.BufferOK {
		return math.Inf(1)
	}
	return met.Cost(m.e.Obj.N, m.e.Obj.M)
}

func (m *lfaMoves) InitCost() float64 { return m.cost(m.cur) }

func (m *lfaMoves) Propose(rng *rand.Rand) (float64, bool) {
	cand, kind, ok := m.e.mutateLFAKind(m.cur, rng)
	if !ok {
		return 0, false
	}
	m.cand, m.kind = cand, kind
	return m.cost(cand), true
}

func (m *lfaMoves) Accept()                  { m.cur = m.cand }
func (m *lfaMoves) Reject()                  {}
func (m *lfaMoves) Snapshot() *core.Encoding { return m.cur }
func (m *lfaMoves) MoveKind() string         { return m.kind }

// mutateLFAKind applies one random LFA operator to a clone of enc, also
// naming the operator drawn (the journal's per-kind accept/reject tallies).
func (e *Explorer) mutateLFAKind(enc *core.Encoding, rng *rand.Rand) (*core.Encoding, string, bool) {
	c := enc.Clone()
	n := len(c.Order)
	switch rng.Intn(5) {
	case 0: // Change Computing Order: move a random layer somewhere legal.
		return c, "order", c.MoveLayer(e.G, rng.Intn(n), rng.Intn(n))
	case 1: // Change Tiling Number: x2 or /2 on a random FLG.
		if e.Par.Ablate.NoTiling {
			return c, "tile", false
		}
		f := rng.Intn(c.NumFLGs())
		if rng.Intn(2) == 0 {
			c.Tile[f] *= 2
			// Cap at the FLG's realizable tile count to keep the
			// space bounded.
			if c.Tile[f] > maxTiles(e, c, f) {
				return c, "tile", false
			}
		} else {
			if c.Tile[f] <= 1 {
				return c, "tile", false
			}
			c.Tile[f] /= 2
		}
		return c, "tile", true
	case 2: // Add an FLC at a random uncut position.
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
		return c, "add-flc", ok
	case 3: // Delete an FLC; the merged FLG inherits a tiling number
		// probabilistically by layer-count ratio (paper rule).
		if len(c.FLCs) == 0 {
			return c, "del-flc", false
		}
		i := rng.Intn(len(c.FLCs))
		loA, hiA := c.FLGBounds(i)
		loB, hiB := c.FLGBounds(i + 1)
		tile := c.Tile[i]
		if rng.Intn(hiB-loA) >= hiA-loA {
			tile = c.Tile[i+1]
		}
		_ = loB
		return c, "del-flc", c.RemoveFLC(i, tile)
	default: // Add/Delete a DRAM cut (the added one must be an FLC).
		if len(c.FLCs) == 0 || e.Par.Ablate.NoFLC {
			return c, "dram-cut", false
		}
		i := rng.Intn(len(c.FLCs))
		c.IsDRAM[i] = !c.IsDRAM[i]
		return c, "dram-cut", true
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
