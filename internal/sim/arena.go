package sim

import (
	"errors"

	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/graph"
)

// Arena evaluates encodings under their double-buffer DLSA in reused
// storage, for callers that keep only the Metrics: the stage-1 annealer
// gives each chain one, and it evaluates every cache miss of the chain. It
// builds no Schedule: it folds the core.Arena walk straight into the merge.
// FLG plans, slab sizes and tile costs come from an FLG memo, which the
// chains of one explorer share. An Arena is not safe for concurrent use.
type Arena struct {
	g    *graph.Graph
	cs   *coresched.Scheduler
	memo *core.FLGMemo
	low  core.Arena

	tileDur, tileEnd []float64
	// gate[s] is the latest end of the stores whose Living Duration ends
	// at tile s.
	gate   []float64
	usage  []int64
	onChip []core.Interval
}

// NewArena returns an empty arena for encodings of g evaluated on cs. memo,
// when non-nil, must be built for g and cs; a nil memo makes the arena its
// own.
func NewArena(g *graph.Graph, cs *coresched.Scheduler, memo *core.FLGMemo) *Arena {
	if memo == nil {
		memo = core.NewFLGMemo(g, cs, core.DefaultFLGMemoBytes)
	}
	return &Arena{g: g, cs: cs, memo: memo}
}

// Evaluate scores enc under opt; the result equals
// Evaluate(core.Parse(g, enc), cs, opt) bit for bit, parse errors included.
// Traced and tile-cost options are rejected: the arena owns the timelines
// and the tile costs.
//
// Under the double-buffer DLSA the merge is a fixed sequence of steps, one
// per tile s in seq order: the loads first used by tile s, then tile s,
// then the store of tile s. A load of tile s waits on tile s-2 (its Start
// is s-1), tile s on its loads and on the store whose Living Duration ends
// at s (tile s-2's), and the store of s on tile s. Every wait is on an
// earlier step, and the steps issue the DRAM tensors in DRAM Tensor Order
// and the tiles in seq order, so folding them in this order performs
// Evaluate's float operations in Evaluate's order, and never deadlocks.
func (a *Arena) Evaluate(enc *core.Encoding, opt Options) (*Metrics, error) {
	if opt.Trace || opt.TileCosts != nil {
		return nil, errors.New("sim: arena evaluations take neither Trace nor TileCosts")
	}
	w := &a.low
	if err := w.Lower(a.g, enc, a.memo); err != nil {
		return nil, err
	}
	cfg := a.cs.Config()
	n := w.NumTiles()
	tileDur, tileEnd := resize(a.tileDur, n), resize(a.tileEnd, n)
	gate, usage := resize(a.gate, n), resize(a.usage, n+1)
	a.tileDur, a.tileEnd, a.gate, a.usage = tileDur, tileEnd, gate, usage
	clear(gate)
	clear(usage)

	var computeFree, dramFree, dramBusy, coreEnergy, computeBusy float64
	var dramBytes int64
	// dram issues tensor t on the serial DRAM channel once dep has passed.
	dram := func(t *core.Tensor, dep float64) float64 {
		dur := float64(t.Bytes) / cfg.DRAMBandwidth
		end := maxf(dramFree, dep) + dur
		dramFree = end
		dramBusy += dur
		dramBytes += t.Bytes
		return end
	}
	for st := w.Next(); st != nil; st = w.Next() {
		s := st.Tile.Seq
		depTime := gate[s]
		ts := st.Tensors
		for len(ts) > 0 && ts[0].Kind.IsLoad() {
			t := &ts[0]
			var dep float64
			if wait := t.Wait(); wait >= 0 {
				dep = tileEnd[wait]
			}
			depTime = maxf(depTime, dram(t, dep))
			lo, hi := t.Live()
			core.AddUsage(usage, lo, hi, t.Bytes)
			ts = ts[1:]
		}
		tileDur[s] = st.Dur
		tileEnd[s] = maxf(computeFree, depTime) + st.Dur
		computeFree = tileEnd[s]
		coreEnergy += st.Energy
		computeBusy += st.Dur
		for i := range ts { // the store of tile s
			t := &ts[i]
			end := dram(t, tileEnd[t.Wait()])
			if g := t.Gate(n); g >= 0 {
				gate[g] = maxf(gate[g], end)
			}
			lo, hi := t.Live()
			core.AddUsage(usage, lo, hi, t.Bytes)
		}
	}
	a.onChip = w.AppendOnChip(a.onChip[:0])
	for _, iv := range a.onChip {
		core.AddUsage(usage, iv.Lo, iv.Hi, iv.Bytes)
	}
	// Prefix sums in place: usage at seq i is the sum of the differences
	// at seqs 0..i.
	var acc int64
	for i := range usage[:n] {
		acc += usage[i]
		usage[i] = acc
	}
	return finishMetrics(cfg, a.g, opt.BufferBudget, usage[:n], tileDur,
		coreEnergy, computeBusy, computeFree, dramFree, dramBusy, dramBytes), nil
}

// resize returns s with length n, reusing its storage when it is large
// enough. Reused elements keep their old values.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
