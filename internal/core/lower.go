package core

import (
	"fmt"

	"soma/internal/graph"
)

// Arena lowers encodings in reusable storage. Lower checks an encoding and
// takes its FLG plans, from an FLG memo or planned afresh; Next then walks
// the tiles in seq order and yields each tile's DRAM tensors in DRAM Tensor
// Order, and AppendOnChip the static on-chip intervals. Parse materializes
// the walk into a Schedule; the stage-1 evaluator folds it into the merge
// without one, and resumes it: Seek skips the tiles of the FLGs a move left
// unchanged, and LowerKept takes their plans from a lowering Keep retained.
//
// During stage 1 the DLSA is the classical double-buffer strategy (Sec.
// III-B): every load is prefetched one tile ahead of its first use, every
// store drains during the following tile, and the DRAM Tensor Order puts
// "store what tile s produced" right after "prefetch what tile s+1 needs".
// That order is a function of seq alone: the loads first used by tile 0,
// the store of tile 0, the loads of tile 1, and so on, so the walk emits
// the tensors in order as it reaches their tiles.
//
// An Arena is not safe for concurrent use.
type Arena struct {
	g    *graph.Graph
	e    *Encoding
	flgs []*flgEntry
	// kept holds the FLG plans Keep retained, for LowerKept; memoized
	// reports whether the current lowering took its plans from a memo.
	kept     []*flgEntry
	memoized bool
	// local backs flgs when Lower has no memo; ints and i64s back their
	// slabs.
	local    []flgEntry
	ints     []int
	i64s     []int64
	flgStart []int
	info     []layerInfo
	// depNext backs the layers' depNext windows; pos is the encoding
	// check's position table.
	depNext  []int
	pos      []int
	nTensors int
	nOnChip  int
	// key is the memo's lookup scratch, s Parse's output.
	key []byte
	s   Schedule

	// The walk's cursor: FLG f, tile t of layer li, at seq.
	f, t, li, seq int
	step          Step
}

// layerInfo is the lowering's per-layer bookkeeping, indexed by LayerID
// (Input layers keep the zero value).
type layerInfo struct {
	flg, lg int
	// li is the layer's position in its FLG: tile t has seq
	// flgStart[flg] + t*len(FLG) + li.
	li int
	// store marks an ofmap written back to DRAM: a consumer sits in
	// another LG, or the layer is a network output.
	store bool
	// lgHi is the exclusive seq after the last tile of any same-LG
	// consumer, flgHi the same over same-LG consumers in other FLGs; 0
	// when there is none.
	lgHi, flgHi int
	// stores is the layer's store-ID window; storeID and weightID are the
	// next IDs the walk gives its stores and weight loads, depNext[di]
	// the next its dependency di's ifmap loads get, or -1 when that
	// operand stays on-chip.
	stores            IDRange
	storeID, weightID int
	depNext           []int
}

// Step is one tile of an Arena walk.
type Step struct {
	Tile Tile
	// Dur and Energy are the tile's memoized compute time and energy;
	// both are zero when Lower had no memo.
	Dur, Energy float64
	// Tensors are the tile's DRAM tensors in DRAM Tensor Order: the loads
	// it uses first, then the store of its output. They carry their IDs
	// and double-buffer Living Durations.
	Tensors []Tensor
}

// resize returns s with length n, reusing its storage when it is large
// enough. Reused elements keep their old values.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Lower prepares a walk over e, or fails when the encoding is illegal (bad
// order/cuts, or a global dependency inside a multi-tile FLG) with Parse's
// error. With a non-nil memo (built for g), the FLG plans, slab sizes and
// tile costs come from the memo. Everything the walk yields is valid until
// the next Lower or Parse on a.
//
// The stage-1 annealer lowers every cache-missing candidate, so Lower keeps
// its bookkeeping, the encoding check's included, in dense LayerID-indexed
// slices: with a warm arena and a warm memo it allocates nothing.
func (a *Arena) Lower(g *graph.Graph, e *Encoding, memo *FLGMemo) error {
	return a.LowerKept(g, e, memo, 0)
}

// Keep retains the FLG plans of the current lowering for LowerKept. A
// lowering without a memo retains none: its plans live in the arena's own
// storage, which the next lowering overwrites.
func (a *Arena) Keep() {
	a.kept = a.kept[:0]
	if a.memoized {
		a.kept = append(a.kept, a.flgs...)
	}
}

// LowerKept lowers e like Lower, but takes the plans of e's first kept FLGs
// from the lowering Keep last retained instead of from memo. The caller
// guarantees that each of those FLGs holds the same layers with the same
// tiling number in both encodings; kept is capped at the number of FLGs
// retained.
func (a *Arena) LowerKept(g *graph.Graph, e *Encoding, memo *FLGMemo, kept int) error {
	if memo != nil && memo.g != g {
		panic("core: FLG memo built for another graph")
	}
	a.flgs, a.f = a.flgs[:0], 0 // a failed Lower leaves an empty walk
	a.pos = resize(a.pos, len(g.Layers))
	if err := e.check(g, a.pos); err != nil {
		return err
	}
	a.g, a.e, a.memoized = g, e, memo != nil

	// Tiling plans. FLGs run in order, each enumerated tile-major.
	nf := e.NumFLGs()
	a.flgs = resize(a.flgs, nf)
	a.flgStart = resize(a.flgStart, nf+1)
	a.flgStart[0] = 0
	if memo == nil {
		a.local = resize(a.local, nf)
		kept = 0
	}
	kept = min(kept, len(a.kept))
	for f := range a.flgs {
		switch {
		case f < kept:
			a.flgs[f] = a.kept[f]
		case memo != nil:
			a.flgs[f] = memo.get(e.FLGLayers(f), e.Tile[f], &a.key)
		default:
			a.local[f] = planFLG(g, e.FLGLayers(f), e.Tile[f])
			a.flgs[f] = &a.local[f]
		}
		if err := a.flgs[f].err; err != nil {
			a.flgs = a.flgs[:0]
			return fmt.Errorf("core: FLG %d: %w", f, err)
		}
		plan := a.flgs[f].plan
		a.flgStart[f+1] = a.flgStart[f] + plan.Tiles*len(plan.Layers)
	}
	if memo == nil {
		a.fillLocalSlabs()
	}

	// Each layer's place in the tile sequence.
	info := resize(a.info, len(g.Layers))
	a.info = info
	clear(info)
	lg := 0
	for f, fe := range a.flgs {
		if f > 0 && e.IsDRAM[f-1] {
			lg++
		}
		for li, id := range fe.plan.Layers {
			info[id] = layerInfo{flg: f, lg: lg, li: li}
		}
	}

	// Store obligations, on-chip lifetimes and ID windows. Stores come
	// first, one per tile of each stored layer, so a layer's store IDs
	// form the contiguous window Stores[id]; then the weight loads; then
	// the ifmap loads, per dependency edge. Emission skips zero-byte
	// slabs, which the per-FLG nonzero counts account for.
	next, nOnChip := 0, 0
	for _, id := range e.Order {
		li := &info[id]
		li.store = g.IsOutput(id)
		for _, cid := range g.Consumers(id) {
			ci := &info[cid]
			if ci.lg != li.lg {
				li.store = true
				continue
			}
			hi := a.tileSeq(cid, a.flgs[ci.flg].plan.Tiles-1) + 1
			li.lgHi = max(li.lgHi, hi)
			if ci.flg != li.flg {
				li.flgHi = max(li.flgHi, hi)
			}
		}
		fe := a.flgs[li.flg]
		if li.store {
			li.stores = IDRange{next, next + fe.ownNZ[li.li]}
			li.storeID = next
			next = li.stores.Hi
		} else if li.flgHi > 0 {
			nOnChip += fe.plan.Tiles
		}
	}
	for _, id := range e.Order {
		l, li := g.Layer(id), &info[id]
		li.weightID = next
		switch {
		case l.WeightBytes == 0:
		case l.WeightsPerSample:
			next += a.flgs[li.flg].weightNZ[li.li]
		default:
			next++
		}
	}
	nd := 0
	for i := range g.Layers {
		nd += len(g.Layers[i].Deps)
	}
	a.depNext = resize(a.depNext, nd)
	deps := a.depNext
	for _, id := range e.Order {
		l, li := g.Layer(id), &info[id]
		fe := a.flgs[li.flg]
		li.depNext, deps = deps[:len(l.Deps)], deps[len(l.Deps):]
		for di, d := range l.Deps {
			pi := &info[d.Producer]
			if g.Layer(d.Producer).Kind == graph.Input || pi.lg != li.lg {
				li.depNext[di] = next
				next += fe.inNZ[fe.depOff[li.li]+di]
				continue
			}
			li.depNext[di] = -1
			if pi.flg == li.flg {
				nOnChip += fe.plan.Tiles
			}
		}
	}
	a.nTensors, a.nOnChip = next, nOnChip
	a.f, a.t, a.li, a.seq = 0, 0, 0, 0
	return nil
}

// fillLocalSlabs computes the slab sizes of the plans in a.local, carved
// from two arena buffers sized once.
func (a *Arena) fillLocalSlabs() {
	ni, n64 := 0, 0
	for f := range a.local {
		i, i64 := slabLen(a.g, a.local[f].plan)
		ni, n64 = ni+i, n64+i64
	}
	a.ints, a.i64s = resize(a.ints, ni), resize(a.i64s, n64)
	ints, i64s := a.ints, a.i64s
	for f := range a.local {
		fe := &a.local[f]
		i, i64 := slabLen(a.g, fe.plan)
		fe.slabs.fill(a.g, fe.plan, ints[:i:i], i64s[:i64:i64])
		ints, i64s = ints[i:], i64s[i64:]
	}
}

// NumTiles returns the compute-sequence length of the lowered encoding.
func (a *Arena) NumTiles() int { return a.flgStart[len(a.flgs)] }

// tileSeq returns the seq of tile t of layer id.
func (a *Arena) tileSeq(id graph.LayerID, t int) int {
	li := &a.info[id]
	return a.flgStart[li.flg] + t*len(a.flgs[li.flg].plan.Layers) + li.li
}

// Next advances the walk to the next tile in seq order and returns it, or
// nil after the last tile. The step is reused by the following call.
func (a *Arena) Next() *Step {
	if a.f == len(a.flgs) {
		return nil
	}
	g, fe, f, t, s := a.g, a.flgs[a.f], a.f, a.t, a.seq
	p := fe.plan
	nl, nt := len(p.Layers), p.Tiles
	k := t*nl + a.li
	id := p.Layers[a.li]
	l, li := g.Layer(id), &a.info[id]
	n := a.NumTiles()

	st := &a.step
	st.Tile.Seq, st.Tile.Layer, st.Tile.FLG, st.Tile.LG, st.Tile.Index = s, id, f, li.lg, t
	st.Dur, st.Energy = 0, 0
	if fe.dur != nil {
		st.Dur, st.Energy = fe.dur[k], fe.energy[k]
	}
	st.Tensors = st.Tensors[:0]
	// Weight loads: one resident tensor per weighted layer, released at
	// FLG completion. Per-sample weight state (decode KV caches) instead
	// streams per tile, scaled to the batch slice the tile covers.
	if l.WeightBytes != 0 {
		if l.WeightsPerSample {
			if b := l.WeightBytes * int64(fe.rows[k]) / int64(l.Out.N); b != 0 {
				st.load(s, LoadWeight, id, &li.weightID, graph.None, b, s+1)
			}
		} else if t == 0 {
			st.load(s, LoadWeight, id, &li.weightID, graph.None, l.WeightBytes, a.flgStart[f+1])
		}
	}
	// Ifmap loads from DRAM, per dependency edge: a slab with halo
	// duplication, or the batch rows' full extent of a global operand. A
	// single-tile consumer keeps a global operand resident; a tiled
	// consumer streams its batch rows' full spatial extent per tile (the
	// only way attention over a large context fits the buffer - at the
	// price of re-reading it under spatial splits, a trade-off the SA
	// owns).
	in := fe.in[t*fe.depOff[nl]+fe.depOff[a.li]:]
	for di, d := range l.Deps {
		next := &li.depNext[di]
		if *next < 0 {
			continue
		}
		if b := in[di]; b != 0 || d.Global && nt == 1 {
			st.load(s, LoadIfmap, id, next, d.Producer, b, s+1)
		}
	}
	// The store of the tile's output drains during the following tile;
	// on-chip consumers extend the buffer life of the stored slab.
	if li.store {
		if b := fe.own[k]; b != 0 {
			x := st.add()
			x.ID, x.Kind, x.Layer, x.Source, x.Bytes = li.storeID, StoreOfmap, id, graph.None, b
			x.FirstUse, x.Release, x.Producer, x.OnChipHi = s, 0, s, li.lgHi
			x.Start, x.End = s, min(s+2, n)
			li.storeID++
		}
	}

	a.seq++
	if a.li++; a.li == nl {
		a.li = 0
		if a.t++; a.t == nt {
			a.t = 0
			a.f++
		}
	}
	return st
}

// add appends a tensor to the step, for the caller to set every field of:
// the walk fills tensors in place rather than copying them in.
func (st *Step) add() *Tensor {
	st.Tensors = append(st.Tensors, Tensor{})
	return &st.Tensors[len(st.Tensors)-1]
}

// load appends a load of layer id first used by tile s, prefetched during
// the tile before, numbered *next (which it advances).
func (st *Step) load(s int, kind TensorKind, id graph.LayerID, next *int, source graph.LayerID, bytes int64, release int) {
	t := st.add()
	t.ID, t.Kind, t.Layer, t.Source, t.Bytes = *next, kind, id, source, bytes
	t.FirstUse, t.Release, t.Producer, t.OnChipHi = s, release, -1, 0
	t.Start, t.End = max(s-1, 0), 0
	*next++
}

// Seek positions the walk at the first tile of FLG f, skipping the tiles
// before it, so that Next yields FLG f's tiles and the rest. It is valid
// only between Lower and the walk's first Next. The skipped tiles change
// nothing the rest of the walk yields: each layer numbers its own tensors.
func (a *Arena) Seek(f int) {
	a.f, a.t, a.li, a.seq = f, 0, 0, a.flgStart[f]
}

// AppendOnChip appends to dst the static on-chip intervals of the layers at
// Order positions [lo, hi) of the lowered encoding: for each dependency
// inside an FLG, the producer's computed slab of tile t lives until the
// consumer's tile t finishes; a producer consumed in a later FLG of its LG
// keeps its owned slabs until the last such consumer finishes, unless a
// store already keeps them. Every interval lies inside its layer's LG, so
// ranges that cover whole LGs partition the intervals by LG.
func (a *Arena) AppendOnChip(dst []Interval, lo, hi int) []Interval {
	g, info := a.g, a.info
	order := a.e.Order[lo:hi]
	for _, id := range order {
		li := &info[id]
		for _, d := range g.Layer(id).Deps {
			pi := &info[d.Producer]
			if g.Layer(d.Producer).Kind == graph.Input || pi.flg != li.flg {
				continue
			}
			fe := a.flgs[li.flg]
			nl := len(fe.plan.Layers)
			for t := 0; t < fe.plan.Tiles; t++ {
				dst = append(dst, Interval{Lo: a.tileSeq(d.Producer, t), Hi: a.tileSeq(id, t) + 1,
					Bytes: fe.comp[t*nl+pi.li]})
			}
		}
	}
	// Cross-FLG same-LG aggregates, emitted once per producer so that
	// multiple consumers do not count them twice.
	for _, id := range order {
		li := &info[id]
		if li.stores.Lo < li.stores.Hi || li.flgHi == 0 {
			continue
		}
		fe := a.flgs[li.flg]
		nl := len(fe.plan.Layers)
		for t := 0; t < fe.plan.Tiles; t++ {
			if b := fe.own[t*nl+li.li]; b > 0 {
				dst = append(dst, Interval{Lo: a.tileSeq(id, t), Hi: li.flgHi, Bytes: b})
			}
		}
	}
	return dst
}

// Parse lowers e like the package-level Parse, into the arena's storage:
// the returned schedule, and every slice it holds, is only valid until the
// next Lower or Parse on a. Each tensor lands at its ID, and the DRAM
// Tensor Order is the walk's.
func (a *Arena) Parse(g *graph.Graph, e *Encoding, memo *FLGMemo) (*Schedule, error) {
	if err := a.Lower(g, e, memo); err != nil {
		return nil, err
	}
	s := &a.s
	s.G, s.Enc = g, e
	s.Tiles = resize(s.Tiles, a.NumTiles())
	s.Tensors = resize(s.Tensors, a.nTensors)
	s.Order = resize(s.Order, a.nTensors)[:0]
	for st := a.Next(); st != nil; st = a.Next() {
		s.Tiles[st.Tile.Seq] = st.Tile
		for i := range st.Tensors {
			t := &st.Tensors[i]
			s.Tensors[t.ID] = *t
			s.Order = append(s.Order, t.ID)
		}
	}
	s.OnChip = a.AppendOnChip(resize(s.OnChip, a.nOnChip)[:0], 0, len(e.Order))
	s.Stores = resize(s.Stores, len(g.Layers))
	for id := range s.Stores {
		s.Stores[id] = a.info[id].stores
	}
	s.plans = resize(s.plans, len(a.flgs))
	for f, fe := range a.flgs {
		s.plans[f] = fe.plan
	}
	s.flgStart = a.flgStart
	return s, nil
}
