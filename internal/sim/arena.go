package sim

import (
	"errors"

	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/graph"
)

// Arena parses and evaluates encodings in reused storage, for callers that
// keep only the Metrics: the stage-1 annealer gives each chain one, and it
// parses and evaluates every cache miss of the chain. Its parse takes FLG
// plans and tile costs from an FLG memo, which the chains of one explorer
// share. Evaluate and PrecomputeTileCosts run the same code in fresh
// storage. An Arena is not safe for concurrent use.
type Arena struct {
	g     *graph.Graph
	cs    *coresched.Scheduler
	memo  *core.FLGMemo
	parse core.Arena
	eval  evalBuffers
}

// NewArena returns an empty arena for encodings of g evaluated on cs. memo,
// when non-nil, must be built for g and cs.
func NewArena(g *graph.Graph, cs *coresched.Scheduler, memo *core.FLGMemo) *Arena {
	return &Arena{g: g, cs: cs, memo: memo}
}

// Evaluate parses enc and evaluates the schedule under opt; the result
// equals Evaluate(core.Parse(g, enc), cs, opt) bit for bit, parse errors
// included. Traced and tile-cost options are rejected: the arena owns the
// timelines and the tile costs.
func (a *Arena) Evaluate(enc *core.Encoding, opt Options) (*Metrics, error) {
	if opt.Trace || opt.TileCosts != nil {
		return nil, errors.New("sim: arena evaluations take neither Trace nor TileCosts")
	}
	s, err := a.parse.Parse(a.g, enc, a.memo)
	if err != nil {
		return nil, err
	}
	return a.eval.evaluate(s, a.cs, &a.parse, opt)
}
