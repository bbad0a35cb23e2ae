// Package cocco implements the paper's baseline: the Cocco framework
// (ASPLOS'24), expressed inside the Tensor-centric Notation as the subspace
// the paper maps it to (Sec. IV-B): only the Computing Order and the DRAM Cut
// set vary, the FLC Set is identical to the DRAM Cut Set (no weight-freeing
// fine-grained cuts), the Tiling Number comes from a conservative
// KC-parallelism/buffer-fit heuristic, and the DLSA is the classical
// double-buffer strategy.
package cocco

import (
	"context"
	"math"
	"math/rand"

	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/graph"
	"soma/internal/hw"
	"soma/internal/obs"
	"soma/internal/sa"
	"soma/internal/sim"
	"soma/internal/soma"
)

// Result is the baseline outcome.
type Result struct {
	Encoding *core.Encoding
	Schedule *core.Schedule
	Metrics  *sim.Metrics
	Cost     float64
	Stats    sa.Stats
}

// Explorer runs the Cocco search for one graph and platform.
type Explorer struct {
	G   *graph.Graph
	CS  *coresched.Scheduler
	Cfg hw.Config
	Obj soma.Objective
	Par soma.Params
	// Progress, when non-nil, receives solver progress callbacks with
	// Stage "cocco" (a start event, one improve event per incumbent
	// improvement, and a done event). It observes the search only and
	// never changes the result.
	Progress func(soma.Progress)
	// Reg, when non-nil, receives the annealer's move counters under the
	// "cocco" stage label; Track, when non-nil, is the trace track the
	// search span and best-cost samples land on. Observation only, like
	// Progress.
	Reg   *obs.Registry
	Track *obs.Track
	// Journal, when non-nil, collects the search's convergence trajectory
	// as a single "cocco" series (the baseline is one chain, one stage).
	// Pass-through observation only, like Reg.
	Journal *obs.Journal
}

// New builds a baseline explorer; Params.Beta1 scales its iteration budget
// (Beta2 is unused - Cocco has no second stage).
func New(g *graph.Graph, cfg hw.Config, obj soma.Objective, par soma.Params) *Explorer {
	return &Explorer{G: g, CS: coresched.New(cfg), Cfg: cfg, Obj: obj, Par: par}
}

// Run anneals order + DRAM cuts and returns the best baseline schedule.
func (e *Explorer) Run() (*Result, error) {
	return e.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation; a canceled search returns
// ctx.Err() so a serving layer can distinguish it from an infeasible one.
func (e *Explorer) RunContext(ctx context.Context) (*Result, error) {
	init := core.DefaultEncoding(e.G, 1)
	e.applyHeuristicTiling(init)
	iters := e.Par.Beta1 * len(init.Order)
	if e.Par.Stage1MaxIters > 0 && iters > e.Par.Stage1MaxIters {
		iters = e.Par.Stage1MaxIters
	}

	cfg := sa.Config{T0: e.Par.T0, Alpha: e.Par.Alpha, Iters: iters, Seed: e.Par.Seed,
		Telemetry: sa.NewTelemetry(e.Reg, "cocco")}
	if e.Progress != nil || e.Track != nil {
		if e.Progress != nil {
			e.Progress(soma.Progress{Stage: "cocco", Kind: "start", Budget: e.Cfg.GBufBytes})
		}
		cfg.OnImprove = func(iter int, cost float64) {
			if e.Progress != nil {
				e.Progress(soma.Progress{Stage: "cocco", Kind: "improve", Iter: iter, Cost: cost})
			}
			e.Track.Counter("best_cost/cocco", cost)
		}
	}
	if e.Journal != nil {
		cfg.Journal = e.Journal.Series("cocco", 0, 0)
	}
	span := e.Track.Start("cocco", "cocco").Arg("iters", iters)
	best, bestCost, stats := sa.RunMovesCtx[*core.Encoding](ctx, cfg, &coccoMoves{e: e, cur: init})
	span.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if math.IsInf(bestCost, 1) {
		return nil, soma.ErrNoFeasible
	}
	s, err := core.Parse(e.G, best)
	if err != nil {
		return nil, err
	}
	m, err := sim.Evaluate(s, e.CS, sim.Options{})
	if err != nil {
		return nil, err
	}
	if e.Progress != nil {
		e.Progress(soma.Progress{Stage: "cocco", Kind: "done", Cost: m.Cost(e.Obj.N, e.Obj.M)})
	}
	return &Result{Encoding: best, Schedule: s, Metrics: m,
		Cost: m.Cost(e.Obj.N, e.Obj.M), Stats: stats}, nil
}

// coccoMoves is the baseline's sa.MoveState. Every Cocco operator is
// structural - it changes the Computing Order or the DRAM cut set, which
// re-derives the tiling and produces a different tile/tensor set - so no
// incremental delta applies: each proposal scores a cloned encoding whole,
// and Accept/Reject just swap or drop the clone. Cocco's DLSA is the
// double-buffer one, so the scoring is a sim.Arena's one-pass fold, with no
// schedule built, exactly as stage 1 of SoMa scores its candidates.
type coccoMoves struct {
	e         *Explorer
	cur, cand *core.Encoding
	// arena scores every candidate; built on first use (the search is one
	// chain).
	arena *sim.Arena
	// kind names the operator the last productive Propose drew
	// (sa.MoveKinder, for the convergence journal).
	kind string
}

func (ms *coccoMoves) InitCost() float64 { return ms.cost(ms.cur) }

func (ms *coccoMoves) Propose(rng *rand.Rand) (float64, bool) {
	cand, kind, ok := ms.e.mutate(ms.cur, rng)
	if !ok {
		return 0, false
	}
	ms.cand, ms.kind = cand, kind
	return ms.cost(cand), true
}

func (ms *coccoMoves) Accept()                  { ms.cur = ms.cand }
func (ms *coccoMoves) Reject()                  {}
func (ms *coccoMoves) Snapshot() *core.Encoding { return ms.cur }
func (ms *coccoMoves) MoveKind() string         { return ms.kind }

// cost scores one encoding (+Inf when illegal or over budget). It equals
// the cost of sim.Evaluate on the parsed encoding bit for bit.
func (ms *coccoMoves) cost(enc *core.Encoding) float64 {
	if ms.arena == nil {
		ms.arena = sim.NewArena(ms.e.G, ms.e.CS, nil)
	}
	m, err := ms.arena.Evaluate(enc, sim.Options{})
	if err != nil || !m.BufferOK {
		return math.Inf(1)
	}
	return m.Cost(ms.e.Obj.N, ms.e.Obj.M)
}

// mutate applies one Cocco operator: move a layer, or toggle a DRAM cut
// (always re-deriving the heuristic tiling, since group membership changed).
// The returned name tags the operator for the convergence journal.
func (e *Explorer) mutate(enc *core.Encoding, rng *rand.Rand) (*core.Encoding, string, bool) {
	c := enc.Clone()
	n := len(c.Order)
	ok := false
	kind := ""
	switch rng.Intn(3) {
	case 0:
		kind = "order"
		ok = c.MoveLayer(e.G, rng.Intn(n), rng.Intn(n))
	case 1: // add a fusion boundary removal == merge two LGs
		kind = "merge"
		if len(c.FLCs) == 0 {
			return c, kind, false
		}
		ok = c.RemoveFLC(rng.Intn(len(c.FLCs)), 1)
	default: // split an LG at a random position
		kind = "split"
		if n < 2 {
			return c, kind, false // one layer: no position to split at
		}
		p := 1 + rng.Intn(n-1)
		ok = c.AddFLC(p)
		if ok {
			// Cocco cuts are always DRAM cuts.
			for i, cut := range c.FLCs {
				if cut == p {
					c.IsDRAM[i] = true
				}
			}
		}
	}
	if !ok {
		return c, kind, false
	}
	e.applyHeuristicTiling(c)
	return c, kind, true
}

// applyHeuristicTiling sets every LG's tiling number with the baseline's
// conservative rule (shared with SoMa's initial solution, see
// soma.HeuristicTile): one KC-parallelism work quantum per tile, refined
// when the double-buffered working set would overflow its GBUF share.
// Deeper, wider groups and larger batches therefore tile finer - the
// behaviour the paper reports for Cocco.
func (e *Explorer) applyHeuristicTiling(enc *core.Encoding) {
	for i := range enc.IsDRAM {
		enc.IsDRAM[i] = true // FLC Set == DRAM Cut Set for Cocco
	}
	for f := 0; f < enc.NumFLGs(); f++ {
		enc.Tile[f] = soma.HeuristicTile(e.G, e.Cfg, enc.FLGLayers(f))
	}
}
