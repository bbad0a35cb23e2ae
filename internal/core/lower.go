package core

import (
	"fmt"

	"soma/internal/graph"
)

// Arena lowers encodings in reusable storage. Lower checks an encoding and
// takes its FLG plans and per-layer bookkeeping; Next then walks the tiles
// in seq order and yields each tile's DRAM tensors in DRAM Tensor Order, and
// AppendOnChip the static on-chip intervals. Parse numbers the tensors and
// materializes the walk into a Schedule; the stage-1 evaluator folds it into
// the merge without one, and resumes it: Keep retains a lowering, the next
// Lower redoes only what its encoding changed, and Seek skips the tiles of
// the LGs before the change.
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
	memo *FLGMemo
	flgs []*flgEntry
	// local backs flgs when Lower has no memo; ints and i64s back their
	// slabs.
	local    []flgEntry
	ints     []int
	i64s     []int64
	flgStart []int
	info     []layerInfo
	// pos is the encoding check's position table, key the memo's lookup
	// scratch.
	pos   []int
	key   []byte
	stats LowerStats

	// The kept lowering, Keep's: base is its encoding, lowered on bg with
	// bmemo, kept its FLG plans and binfo its layers' bookkeeping. info
	// holds binfo's entries for the layers at base.Order[:fresh]. last
	// copies the encoding of the current lowering when keepable, which
	// Keep makes the base.
	base, last Encoding
	bg         *graph.Graph
	bmemo      *FLGMemo
	kept       []*flgEntry
	binfo      []layerInfo
	fresh      int
	keepable   bool

	// Parse's tensor numbering: the next ID of each layer's numbering
	// slots, from ids[slot[id]] on; numbered is set once they are filled.
	// s is Parse's output.
	ids, slot []int
	numbered  bool
	s         Schedule

	// The walk's cursor: FLG f, tile t of layer li, at seq.
	f, t, li, seq int
	step          Step
}

// layerInfo is the lowering's per-layer bookkeeping, indexed by LayerID.
// Input layers hold flg and lg -1, so an operand is served on-chip exactly
// when its producer's lg is its consumer's.
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
}

// A layer's numbering slots: its stores, its weight loads, and the ifmap
// loads of its dependency di at slotDeps+di.
const (
	slotStore = iota
	slotWeight
	slotDeps
)

// LowerStats describes what the last Lower took from the kept lowering and
// what it redid.
type LowerStats struct {
	// LG is the first LG whose steps may differ from the kept lowering's:
	// the LGs before it hold the same layers with the same plans and
	// bookkeeping, so their tiles yield the same steps. It is 0 after a
	// lowering with nothing kept.
	LG int
	// Lookups counts the FLG plans taken from the memo (or planned, without
	// one), Bookkept the layers whose bookkeeping was recomputed.
	Lookups, Bookkept int
}

// Step is one tile of an Arena walk.
type Step struct {
	Tile Tile
	// Dur and Energy are the tile's memoized compute time and energy;
	// both are zero when Lower had no memo.
	Dur, Energy float64
	// Tensors are the tile's DRAM tensors in DRAM Tensor Order: the loads
	// it uses first, then the store of its output, with their double-buffer
	// Living Durations. They carry their IDs in Parse's walk, and ID 0 in
	// any other.
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
// Lower always checks the whole encoding, but when Keep retained a lowering
// of g with the same memo it redoes only what e changed (see sharedFLGs):
// the FLGs e shares with the kept encoding at its front and at its back
// keep their plans, and the layers of the LGs before the first changed FLG
// keep their bookkeeping. A lowering with nothing kept is the same pass
// with nothing shared. The stage-1 annealer lowers every cache-missing
// candidate, so the bookkeeping lives in dense LayerID-indexed slices: with
// a warm arena and a warm memo Lower allocates nothing.
func (a *Arena) Lower(g *graph.Graph, e *Encoding, memo *FLGMemo) error {
	if memo != nil && memo.g != g {
		panic("core: FLG memo built for another graph")
	}
	a.flgs, a.f = a.flgs[:0], 0 // a failed Lower leaves an empty walk
	a.stats, a.keepable, a.numbered = LowerStats{}, false, false
	a.pos = resize(a.pos, len(g.Layers))
	if err := e.check(g, a.pos); err != nil {
		return err
	}
	kept := memo != nil && a.bg == g && a.bmemo == memo
	if !kept { // the kept lowering belongs to another graph or memo
		a.bg, a.bmemo, a.kept = nil, nil, a.kept[:0]
	}
	a.g, a.e, a.memo = g, e, memo

	// Tiling plans. FLGs run in order, each enumerated tile-major.
	nf := e.NumFLGs()
	front, back := 0, 0
	if kept {
		front, back = sharedFLGs(&a.base, e)
	}
	a.flgs = resize(a.flgs, nf)
	a.flgStart = resize(a.flgStart, nf+1)
	a.flgStart[0] = 0
	if memo == nil {
		a.local = resize(a.local, nf)
	}
	for f := range a.flgs {
		switch {
		case f < front:
			a.flgs[f] = a.kept[f]
		case f >= nf-back:
			a.flgs[f] = a.kept[f+len(a.kept)-nf]
		case memo != nil:
			a.stats.Lookups++
			a.flgs[f] = memo.get(e.FLGLayers(f), e.Tile[f], &a.key)
		default:
			a.stats.Lookups++
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

	// LG lg, which holds FLG front, begins at FLG f0 and order position lo
	// (the last LG when no FLG changed, and then lo is past the order). The
	// layers before lo keep the kept lowering's bookkeeping: their LGs hold
	// the same layers in both encodings, and everything else lies in later
	// LGs in both, so their store obligations and same-LG lifetimes are
	// the same. The layers from lo on are bookkept afresh.
	f0, lg := 0, 0
	for f := 1; f <= front && f < nf; f++ {
		if e.IsDRAM[f-1] {
			f0, lg = f, lg+1
		}
	}
	lo := len(e.Order)
	if front < nf {
		lo, _ = e.FLGBounds(f0)
	} else {
		f0 = nf
	}
	a.stats.LG, a.stats.Bookkept = lg, len(e.Order)-lo
	info := a.info
	if kept {
		if a.fresh < lo {
			for _, id := range e.Order[a.fresh:lo] {
				info[id] = a.binfo[id]
			}
		}
	} else {
		info = resize(info, len(g.Layers))
		a.info, a.binfo = info, resize(a.binfo, len(g.Layers))
		for id := range info {
			info[id] = layerInfo{flg: -1, lg: -1}
		}
	}
	a.fresh = lo

	// Each layer's place in the tile sequence.
	for f := f0; f < nf; f++ {
		if f > f0 && e.IsDRAM[f-1] {
			lg++
		}
		for li, id := range a.flgs[f].plan.Layers {
			info[id] = layerInfo{flg: f, lg: lg, li: li}
		}
	}
	// Store obligations and on-chip lifetimes: every consumer comes later
	// in the order, so it is placed already.
	for _, id := range e.Order[lo:] {
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
	}
	if memo != nil {
		a.last.CopyFrom(e)
		a.keepable = true
	}
	a.f, a.t, a.li, a.seq = 0, 0, 0, 0
	return nil
}

// Keep retains the current lowering for the Lowers after it. After a
// lowering that failed or had no memo, or a second Keep, it does nothing:
// the kept lowering stays the one retained before.
func (a *Arena) Keep() {
	if !a.keepable {
		return
	}
	a.keepable = false
	for _, id := range a.last.Order[a.fresh:] {
		a.binfo[id] = a.info[id]
	}
	a.fresh = len(a.last.Order)
	a.base, a.last = a.last, a.base
	a.kept = append(a.kept[:0], a.flgs...)
	a.bg, a.bmemo = a.g, a.memo
}

// LowerStats describes the last Lower.
func (a *Arena) LowerStats() LowerStats { return a.stats }

// sharedFLGs returns how many FLGs y shares with x at its front and, after
// those, at its back: FLGs at the same order positions, holding the same
// layers with the same tiling number, so with the same plan. The front ones
// also close with the same cut, so the LGs before the first changed FLG are
// the same. x and y are legal encodings of one graph.
func sharedFLGs(x, y *Encoding) (front, back int) {
	n := len(y.Order)
	p := 0 // the first order position that differs
	for p < n && x.Order[p] == y.Order[p] {
		p++
	}
	nx, ny := x.NumFLGs(), y.NumFLGs()
	for front < min(nx, ny) {
		_, hx := x.FLGBounds(front)
		_, hy := y.FLGBounds(front)
		if hx != hy || hx > p || x.Tile[front] != y.Tile[front] ||
			(front < len(x.IsDRAM)) != (front < len(y.IsDRAM)) ||
			front < len(x.IsDRAM) && x.IsDRAM[front] != y.IsDRAM[front] {
			break
		}
		front++
	}
	q := 0 // the order positions from q on are the same
	if p < n {
		for q = n; x.Order[q-1] == y.Order[q-1]; q-- {
		}
	}
	for back < ny-front && back < nx {
		lx, hx := x.FLGBounds(nx - 1 - back)
		ly, hy := y.FLGBounds(ny - 1 - back)
		if lx != ly || hx != hy || ly < q || x.Tile[nx-1-back] != y.Tile[ny-1-back] {
			break
		}
		back++
	}
	return front, back
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
				st.load(s, LoadWeight, id, a.id(id, slotWeight), graph.None, b, s+1)
			}
		} else if t == 0 {
			st.load(s, LoadWeight, id, a.id(id, slotWeight), graph.None, l.WeightBytes, a.flgStart[f+1])
		}
	}
	// Ifmap loads from DRAM, per dependency edge: a slab with halo
	// duplication, or the batch rows' full extent of a global operand. A
	// single-tile consumer keeps a global operand resident; a tiled
	// consumer streams its batch rows' full spatial extent per tile (the
	// only way attention over a large context fits the buffer - at the
	// price of re-reading it under spatial splits, a trade-off the SA
	// owns). An operand produced in the same LG is served on-chip.
	in := fe.in[t*fe.depOff[nl]+fe.depOff[a.li]:]
	for di, d := range l.Deps {
		if a.info[d.Producer].lg == li.lg {
			continue
		}
		if b := in[di]; b != 0 || d.Global && nt == 1 {
			st.load(s, LoadIfmap, id, a.id(id, slotDeps+di), d.Producer, b, s+1)
		}
	}
	// The store of the tile's output drains during the following tile;
	// on-chip consumers extend the buffer life of the stored slab.
	if li.store {
		if b := fe.own[k]; b != 0 {
			x := st.add()
			x.ID, x.Kind, x.Layer, x.Source, x.Bytes = a.id(id, slotStore), StoreOfmap, id, graph.None, b
			x.FirstUse, x.Release, x.Producer, x.OnChipHi = s, 0, s, li.lgHi
			x.Start, x.End = s, min(s+2, n)
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
// the tile before, with ID tid.
func (st *Step) load(s int, kind TensorKind, id graph.LayerID, tid int, source graph.LayerID, bytes int64, release int) {
	t := st.add()
	t.ID, t.Kind, t.Layer, t.Source, t.Bytes = tid, kind, id, source, bytes
	t.FirstUse, t.Release, t.Producer, t.OnChipHi = s, release, -1, 0
	t.Start, t.End = max(s-1, 0), 0
}

// id returns the ID of the next tensor layer emits in its numbering slot k,
// or 0 in a walk Parse did not number.
func (a *Arena) id(layer graph.LayerID, k int) int {
	if !a.numbered {
		return 0
	}
	c := &a.ids[a.slot[layer]+k]
	*c++
	return *c - 1
}

// Seek positions the walk at the first tile of FLG f, skipping the tiles
// before it, so that Next yields FLG f's tiles and the rest. It is valid
// only between Lower and the walk's first Next, and only in a walk Parse
// does not number.
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
			if pi.flg != li.flg {
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
		if li.store || li.flgHi == 0 {
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
	s.Stores = resize(s.Stores, len(g.Layers))
	nTensors, nOnChip := a.number(s.Stores)
	s.Tiles = resize(s.Tiles, a.NumTiles())
	s.Tensors = resize(s.Tensors, nTensors)
	s.Order = resize(s.Order, nTensors)[:0]
	for st := a.Next(); st != nil; st = a.Next() {
		s.Tiles[st.Tile.Seq] = st.Tile
		for i := range st.Tensors {
			t := &st.Tensors[i]
			s.Tensors[t.ID] = *t
			s.Order = append(s.Order, t.ID)
		}
	}
	s.OnChip = a.AppendOnChip(resize(s.OnChip, nOnChip)[:0], 0, len(e.Order))
	s.plans = resize(s.plans, len(a.flgs))
	for f, fe := range a.flgs {
		s.plans[f] = fe.plan
	}
	s.flgStart = a.flgStart
	return s, nil
}

// number numbers the tensors of the lowered encoding for the walk that
// follows, and returns their count and that of its on-chip intervals. Stores
// come first, one per tile of each stored layer, so a layer's store IDs
// form the contiguous window stores[id] (which number fills, indexed by
// LayerID); then the weight loads; then the ifmap loads, per dependency
// edge. Emission skips zero-byte slabs, which the per-FLG nonzero counts
// account for. Layers number in Order, so the IDs of a layer depend on the
// layers after it: only Parse numbers, and the walks that resume read no
// ID.
func (a *Arena) number(stores []IDRange) (nTensors, nOnChip int) {
	g, info := a.g, a.info
	a.slot = resize(a.slot, len(g.Layers))
	slots := 0
	for _, id := range a.e.Order {
		a.slot[id] = slots
		slots += slotDeps + len(g.Layer(id).Deps)
	}
	a.ids = resize(a.ids, slots)
	clear(stores)
	next := 0
	for _, id := range a.e.Order {
		li := &info[id]
		fe := a.flgs[li.flg]
		if li.store {
			stores[id] = IDRange{next, next + fe.ownNZ[li.li]}
			a.ids[a.slot[id]+slotStore] = next
			next = stores[id].Hi
		} else if li.flgHi > 0 {
			nOnChip += fe.plan.Tiles
		}
	}
	for _, id := range a.e.Order {
		l, li := g.Layer(id), &info[id]
		a.ids[a.slot[id]+slotWeight] = next
		switch {
		case l.WeightBytes == 0:
		case l.WeightsPerSample:
			next += a.flgs[li.flg].weightNZ[li.li]
		default:
			next++
		}
	}
	for _, id := range a.e.Order {
		l, li := g.Layer(id), &info[id]
		fe := a.flgs[li.flg]
		for di, d := range l.Deps {
			if pi := &info[d.Producer]; pi.lg == li.lg {
				if pi.flg == li.flg {
					nOnChip += fe.plan.Tiles
				}
				continue
			}
			a.ids[a.slot[id]+slotDeps+di] = next
			next += fe.inNZ[fe.depOff[li.li]+di]
		}
	}
	a.numbered = true
	return next, nOnChip
}
