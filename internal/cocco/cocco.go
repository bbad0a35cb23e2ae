// Package cocco implements the paper's baseline: the Cocco framework
// (ASPLOS'24), expressed inside the Tensor-centric Notation as the subspace
// the paper maps it to (Sec. IV-B): only the Computing Order and the DRAM Cut
// set vary, the FLC Set is identical to the DRAM Cut Set (no weight-freeing
// fine-grained cuts), the Tiling Number comes from a conservative
// KC-parallelism/buffer-fit heuristic, and the DLSA is the classical
// double-buffer strategy.
//
// A subspace needs no search of its own: Run anneals Cocco's operators on
// SoMa's stage-1 chain (soma.Explorer.AnnealLFA), so the baseline reports
// progress, move counters, a trace span and a journal series exactly as a
// SoMa stage 1 does, under the stage label "cocco".
package cocco

import (
	"context"
	"math/rand"

	"soma/internal/core"
	"soma/internal/sim"
	"soma/internal/soma"
)

// Result is the baseline outcome.
type Result struct {
	Encoding *core.Encoding
	Schedule *core.Schedule
	Metrics  *sim.Metrics
	Cost     float64
}

// Run anneals order + DRAM cuts on e's graph and platform and returns the
// best baseline schedule; Params.Beta1 scales its iteration budget (Beta2
// is unused - Cocco has no second stage). The baseline is one chain seeded
// with Params.Seed under the full GBUF, evaluated uncached (the chain rarely
// revisits a state), so Run sets e's portfolio to one chain and drops its
// Cache. A canceled search returns ctx.Err(), one that finds nothing
// feasible soma.ErrNoFeasible.
func Run(ctx context.Context, e *soma.Explorer) (*Result, error) {
	e.Par.Chains = 1
	e.Cache = nil
	init := core.DefaultEncoding(e.G, 1)
	heuristicTiling(e, init)
	best, res, err := e.AnnealLFA(ctx, "cocco", init, e.Cfg.GBufBytes, e.Par.Seed,
		func(c *core.Encoding, rng *rand.Rand) (string, bool) { return mutate(e, c, rng) })
	if err != nil {
		return nil, err
	}
	s, err := core.Parse(e.G, best)
	if err != nil {
		return nil, err
	}
	return &Result{Encoding: best, Schedule: s, Metrics: res.Metrics, Cost: res.Cost}, nil
}

// mutate applies one Cocco operator to c in place - move a layer, merge two
// layer groups or split one - and names it for the convergence journal. A
// productive move re-derives the heuristic tiling, since group membership
// changed; an unproductive one (false) may leave c changed.
func mutate(e *soma.Explorer, c *core.Encoding, rng *rand.Rand) (string, bool) {
	n := len(c.Order)
	kind, ok := "", false
	switch rng.Intn(3) {
	case 0:
		kind, ok = "order", c.MoveLayer(e.G, rng.Intn(n), rng.Intn(n))
	case 1: // remove a cut: merge two LGs
		if len(c.FLCs) == 0 {
			return "merge", false
		}
		kind, ok = "merge", c.RemoveFLC(rng.Intn(len(c.FLCs)), 1)
	default: // cut an LG at a random position
		if n < 2 {
			return "split", false // one layer: no position to split at
		}
		kind, ok = "split", c.AddFLC(1+rng.Intn(n-1))
	}
	if ok {
		heuristicTiling(e, c)
	}
	return kind, ok
}

// heuristicTiling makes every cut a DRAM cut (FLC Set == DRAM Cut Set) and
// sets every LG's tiling number with the baseline's conservative rule
// (shared with SoMa's initial solution, see soma.HeuristicTile): one
// KC-parallelism work quantum per tile, refined when the double-buffered
// working set would overflow its GBUF share. Deeper, wider groups and
// larger batches therefore tile finer - the behaviour the paper reports for
// Cocco.
func heuristicTiling(e *soma.Explorer, enc *core.Encoding) {
	for i := range enc.IsDRAM {
		enc.IsDRAM[i] = true
	}
	for f := 0; f < enc.NumFLGs(); f++ {
		enc.Tile[f] = soma.HeuristicTile(e.G, e.Cfg, enc.FLGLayers(f))
	}
}
