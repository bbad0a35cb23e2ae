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
// chains of one explorer share.
//
// An arena resumes each evaluation from its base, the encoding of the last
// evaluation Accept promoted: it keeps the lowering of the base
// (core.Arena.Keep) and the fold's state where each LG of the base begins
// (an lgCheckpoint), and an encoding whose first LGs equal the base's
// lowers only what differs and folds only the tiles from the first LG that
// differs. An arena is not safe for concurrent use.
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

	// ckpts describe the base, the encoding low keeps: ckpts[k] is the
	// state where its LG k begins. ckpts[0], the state before any tile, is
	// always there; the last LG has none when it holds one tile.
	ckpts []lgCheckpoint
	// lastOK reports that the last evaluation lowered, resumed from
	// ckpts[from]; next holds the checkpoints it recorded, for its LGs
	// from+1 on.
	lastOK bool
	from   int
	next   []lgCheckpoint

	stats ArenaStats
}

// lgCheckpoint is the fold's state where an LG begins, before its first
// tile b: everything the tiles from b on read of the tiles before b. Under
// the double-buffer DLSA a tile's loads wait on the tile two before it and
// a store holds buffer and gates the tile two after its producer, so the
// state reaches back one tile and forward two.
type lgCheckpoint struct {
	// flg is the LG's first FLG, and seq its first tile b.
	flg, seq int
	// The resource frontiers and the sums over the tiles before b.
	computeFree, dramFree, dramBusy, coreEnergy, computeBusy float64
	dramBytes                                                int64
	// end holds tileEnd[b-2] and tileEnd[b-1], on which the loads of
	// tiles b and b+1 wait, and dur tileDur[b-1].
	end [2]float64
	dur float64
	// gate holds gate[b] and gate[b+1], which the stores of tiles b-2 and
	// b-1 set.
	gate [2]float64
	// diff holds the usage differences at seqs b-1, b and b+1 that the
	// tensors and on-chip intervals of the tiles before b contribute;
	// nothing before b reaches further.
	diff [3]int64
	// acc is the usage at seq b-2, and us the usage folded through it.
	// The differences up to b-2 are final once tile b-1 is folded: the
	// tensors of tile b and later start at b-1.
	acc int64
	us  usageSum
}

// ArenaStats counts an arena's evaluations, the tiles it folded and what
// their lowerings redid.
type ArenaStats struct {
	// Evals counts Evaluate calls, Resumed those that resumed from a
	// checkpoint after tile 0.
	Evals, Resumed int64
	// Tiles sums the tiles of the encodings that lowered: what cold folds
	// would walk. Folded sums the tiles the evaluations walked and folded.
	Tiles, Folded int64
	// Lookups sums the FLG plans the lowerings took from the FLG memo,
	// Bookkept the layers whose bookkeeping they recomputed
	// (core.LowerStats).
	Lookups, Bookkept int64
}

// NewArena returns an empty arena for encodings of g evaluated on cs. memo,
// when non-nil, must be built for g and cs; a nil memo makes the arena its
// own.
func NewArena(g *graph.Graph, cs *coresched.Scheduler, memo *core.FLGMemo) *Arena {
	if memo == nil {
		memo = core.NewFLGMemo(g, cs, core.DefaultFLGMemoBytes)
	}
	return &Arena{g: g, cs: cs, memo: memo, ckpts: []lgCheckpoint{{}}}
}

// Stats returns the arena's counters.
func (a *Arena) Stats() ArenaStats { return a.stats }

// Accept makes the encoding of the last evaluation the base later
// evaluations resume from, with the checkpoints that evaluation recorded.
// After an evaluation that failed to lower, or a second Accept, it does
// nothing: the base stays the encoding its checkpoints describe.
func (a *Arena) Accept() {
	if !a.lastOK {
		return
	}
	a.ckpts = append(a.ckpts[:a.from+1], a.next...)
	a.low.Keep()
	a.lastOK = false
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
//
// The steps of an LG depend on the encoding only through that LG and the
// ones before it, so the fold resumes from the base's checkpoint where the
// first LG whose lowering differs from the base's begins (see resumeFrom;
// core.Arena.Lower finds that LG and lowers only from it). The usage
// profile is folded LG by LG as well, with each LG's on-chip intervals
// added where the LG begins, so the resumed fold performs the cold fold's
// float operations on the tiles from its checkpoint on.
func (a *Arena) Evaluate(enc *core.Encoding, opt Options) (*Metrics, error) {
	if opt.Trace || opt.TileCosts != nil {
		return nil, errors.New("sim: arena evaluations take neither Trace nor TileCosts")
	}
	a.stats.Evals++
	a.lastOK = false
	w := &a.low
	err := w.Lower(a.g, enc, a.memo)
	low := w.LowerStats()
	a.stats.Lookups += int64(low.Lookups)
	a.stats.Bookkept += int64(low.Bookkept)
	if err != nil {
		return nil, err
	}
	cfg := a.cs.Config()
	n := w.NumTiles()
	tileDur, tileEnd := resize(a.tileDur, n), resize(a.tileEnd, n)
	gate, usage := resize(a.gate, n), resize(a.usage, n+1)
	a.tileDur, a.tileEnd, a.gate, a.usage = tileDur, tileEnd, gate, usage

	from := a.resumeFrom(low.LG, n)
	ck := &a.ckpts[from]
	b := ck.seq
	a.stats.Tiles += int64(n)
	a.stats.Folded += int64(n - b)
	if b > 0 {
		a.stats.Resumed++
	}
	clear(gate[b:])
	clear(usage[max(b-1, 0):])
	if b > 0 { // b+1 < n: see resumeFrom
		if b > 1 {
			tileEnd[b-2] = ck.end[0]
		}
		tileEnd[b-1], tileDur[b-1] = ck.end[1], ck.dur
		gate[b], gate[b+1] = ck.gate[0], ck.gate[1]
		usage[b-1], usage[b], usage[b+1] = ck.diff[0], ck.diff[1], ck.diff[2]
	}
	computeFree, dramFree, dramBusy := ck.computeFree, ck.dramFree, ck.dramBusy
	coreEnergy, computeBusy, dramBytes := ck.coreEnergy, ck.computeBusy, ck.dramBytes
	acc, us := ck.acc, ck.us
	done := max(b-1, 0) // the next seq the usage fold takes
	sumTo := func(hi int) {
		for ; done < hi; done++ {
			acc += usage[done]
			us.add(acc, tileDur[done])
		}
	}
	a.next = a.next[:0]
	lg := from
	a.addOnChip(enc, ck.flg)
	w.Seek(ck.flg)

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
		if st.Tile.LG != lg { // LG lg begins at tile s
			lg = st.Tile.LG
			sumTo(s - 1)
			if s+1 < n {
				a.next = append(a.next, lgCheckpoint{flg: st.Tile.FLG, seq: s,
					computeFree: computeFree, dramFree: dramFree, dramBusy: dramBusy,
					coreEnergy: coreEnergy, computeBusy: computeBusy, dramBytes: dramBytes,
					end: [2]float64{tileEnd[max(s-2, 0)], tileEnd[s-1]}, dur: tileDur[s-1],
					gate: [2]float64{gate[s], gate[s+1]},
					diff: [3]int64{usage[s-1], usage[s], usage[s+1]},
					acc:  acc, us: us})
			}
			a.addOnChip(enc, st.Tile.FLG)
		}
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
	sumTo(n)
	a.lastOK, a.from = true, from
	return finishMetrics(cfg, a.g, opt.BufferBudget, us,
		coreEnergy, computeBusy, computeFree, dramFree, dramBusy, dramBytes), nil
}

// resumeFrom returns the index of the base checkpoint an evaluation resumes
// from when its encoding, lowered to n tiles, first differs from the base
// in LG k: the checkpoint where LG k begins, or an earlier one. The LGs
// before it hold the same layers in the same FLGs with the same tiling
// numbers and cuts in both encodings, so their tiles yield the same steps:
// a layer of theirs consumed in a later LG is stored in both. The
// checkpoint must also leave two tiles after its seq b in the encoding as
// in the base, so that the stores of tiles b-2 and b-1 end before the last
// tile in both (core.Tensor.Gate).
func (a *Arena) resumeFrom(k, n int) int {
	k = min(k, len(a.ckpts)-1)
	for k > 0 && a.ckpts[k].seq+1 >= n {
		k--
	}
	return k
}

// addOnChip adds to the usage differences the on-chip intervals of the LG
// of enc that begins at FLG f.
func (a *Arena) addOnChip(enc *core.Encoding, f int) {
	lo, _ := enc.FLGBounds(f)
	for f < len(enc.IsDRAM) && !enc.IsDRAM[f] {
		f++
	}
	_, hi := enc.FLGBounds(f)
	a.onChip = a.low.AppendOnChip(a.onChip[:0], lo, hi)
	for _, iv := range a.onChip {
		core.AddUsage(a.usage, iv.Lo, iv.Hi, iv.Bytes)
	}
}

// resize returns s with length n, reusing its storage when it is large
// enough. Reused elements keep their old values.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
