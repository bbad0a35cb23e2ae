package core

import (
	"encoding/binary"
	"sync"

	"soma/internal/coresched"
	"soma/internal/graph"
	"soma/internal/tiling"
)

// DefaultFLGMemoBytes is the byte budget of an FLGMemo built for a solve.
// The paper profile runs up to 2^20 stage-1 iterations per allocator
// iteration, so the memo must not grow with the search; at this size it
// keeps every FLG a fast-profile zoo or prefill solve plans.
const DefaultFLGMemoBytes = 32 << 20

// flgEntry is what one fused layer group's layer sequence and tiling number
// alone determine: its tiling plan, or the error that makes it illegal, the
// byte sizes of its tile slabs and the core-array cost of each of its
// tiles. Entries are shared between lowerings and must not be modified.
type flgEntry struct {
	plan *tiling.Plan
	err  error
	slabs
	// dur and energy are each tile's compute time and energy in FLG-local
	// seq order. Both are nil when the plan failed or the entry was not
	// built by a memo.
	dur, energy []float64
	bytes       int64
}

// slabs are the byte sizes the lowering's tensor and interval rules read,
// per tile in FLG-local seq order: tile t of the FLG's li-th layer sits at
// k = t*nl+li, the order the walk visits the FLG's tiles in.
type slabs struct {
	// own and comp are tile k's owned and computed (halo included) output
	// slab bytes, rows the batch rows of its computed region.
	own, comp []int64
	rows      []int
	// in holds, per tile, the bytes a DRAM load of each of its layer's
	// operands moves: tile k's dependency di at
	// in[t*depOff[nl]+depOff[li]+di]. That is the input slab of a
	// non-global dependency, and the batch rows' share of the whole
	// operand of a global one.
	in     []int64
	depOff []int
	// ownNZ and weightNZ count, per layer, the tiles whose owned slab and
	// per-sample weight share are nonzero, inNZ per dependency (at
	// depOff[li]+di) the DRAM loads it emits: zero-byte slabs emit no
	// tensor, except a global operand of a single-tile FLG.
	ownNZ, weightNZ, inNZ []int
}

// slabLen returns how many ints and int64s the slabs of plan p take.
func slabLen(g *graph.Graph, p *tiling.Plan) (ints, i64s int) {
	nl, nt, nd := len(p.Layers), p.Tiles, 0
	for _, id := range p.Layers {
		nd += len(g.Layer(id).Deps)
	}
	return nl*nt + (nl + 1) + 2*nl + nd, 2*nl*nt + nd*nt
}

// fill computes the slabs of plan p into ints and i64s, of slabLen's sizes.
func (sl *slabs) fill(g *graph.Graph, p *tiling.Plan, ints []int, i64s []int64) {
	nl, nt := len(p.Layers), p.Tiles
	take := func(n int) []int {
		s := ints[:n:n]
		ints = ints[n:]
		return s
	}
	take64 := func(n int) []int64 {
		s := i64s[:n:n]
		i64s = i64s[n:]
		return s
	}
	sl.rows, sl.depOff = take(nl*nt), take(nl+1)
	sl.ownNZ, sl.weightNZ = take(nl), take(nl)
	sl.depOff[0] = 0
	for li, id := range p.Layers {
		sl.depOff[li+1] = sl.depOff[li] + len(g.Layer(id).Deps)
	}
	nd := sl.depOff[nl]
	sl.inNZ = take(nd)
	sl.own, sl.comp, sl.in = take64(nl*nt), take64(nl*nt), take64(nd*nt)
	clear(sl.ownNZ)
	clear(sl.weightNZ)
	clear(sl.inNZ)

	eb := int64(g.ElemBytes)
	for li, id := range p.Layers {
		l := g.Layer(id)
		for t := 0; t < nt; t++ {
			k := t*nl + li
			r := p.Computed[li][t]
			sl.own[k] = p.Owned[li][t].Elems(l.Out.C) * eb
			sl.comp[k] = r.Elems(l.Out.C) * eb
			sl.rows[k] = r.N1 - r.N0
			if sl.own[k] != 0 {
				sl.ownNZ[li]++
			}
			if l.WeightsPerSample && l.WeightBytes*int64(sl.rows[k])/int64(l.Out.N) != 0 {
				sl.weightNZ[li]++
			}
			in := sl.in[t*nd+sl.depOff[li]:]
			for di, d := range l.Deps {
				po := g.Layer(d.Producer).Out
				if d.Global {
					in[di] = po.Bytes(g.ElemBytes) * int64(sl.rows[k]) / int64(l.Out.N)
				} else {
					in[di] = tiling.InputRegion(l, d.Producer, g, r).Elems(po.C) * eb
				}
				if in[di] != 0 || d.Global && nt == 1 {
					sl.inNZ[sl.depOff[li]+di]++
				}
			}
		}
	}
}

// FLGMemo memoizes flgEntry values by (layer sequence, tiling number) for
// one graph and one core-array scheduler. Each stage-1 LFA operator changes
// at most two FLGs of an encoding, so nearly every FLG of a cache-missing
// candidate is one an earlier miss already planned and costed; an Arena
// lowering with a memo takes those, and the tiles' slab sizes, from here
// instead of re-running tiling.New, the region arithmetic and the per-tile
// core-array evaluation.
//
// The memo is bounded like sim.Cache, by bytes instead of entries: entries
// live in two generations of at most budget/2 bytes each; when the current
// one fills, the older is dropped, and a hit in the older moves the entry
// back into the current one. An entry larger than budget/2 is never kept.
// A memo is safe for concurrent use; portfolio chains share one.
type FLGMemo struct {
	g      *graph.Graph
	cs     *coresched.Scheduler
	budget int64

	mu                 sync.Mutex
	cur, old           map[string]*flgEntry
	curBytes, oldBytes int64
	evictions          int64
}

// NewFLGMemo returns an empty memo for plans over g whose tile costs come
// from cs, bounded by budget bytes.
func NewFLGMemo(g *graph.Graph, cs *coresched.Scheduler, budget int64) *FLGMemo {
	return &FLGMemo{g: g, cs: cs, budget: budget,
		cur: map[string]*flgEntry{}, old: map[string]*flgEntry{}}
}

// FLGMemoStats is a snapshot of a memo's size and evictions.
type FLGMemoStats struct {
	Entries int
	// Bytes estimates the heap the entries hold; it never exceeds the
	// budget.
	Bytes int64
	// Evictions counts dropped generations.
	Evictions int64
}

// Stats snapshots the memo.
func (m *FLGMemo) Stats() FLGMemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return FLGMemoStats{Entries: len(m.cur) + len(m.old),
		Bytes: m.curBytes + m.oldBytes, Evictions: m.evictions}
}

// get returns the entry of the FLG with the given layers and tiling number,
// planning and costing it on a miss. key is scratch for the lookup key.
func (m *FLGMemo) get(layers []graph.LayerID, tile int, key *[]byte) *flgEntry {
	b := binary.AppendUvarint((*key)[:0], uint64(tile))
	for _, id := range layers {
		b = binary.AppendUvarint(b, uint64(id))
	}
	*key = b

	m.mu.Lock()
	if fe, ok := m.cur[string(b)]; ok {
		m.mu.Unlock()
		return fe
	}
	if fe, ok := m.old[string(b)]; ok {
		delete(m.old, string(b))
		m.oldBytes -= fe.bytes
		m.insert(string(b), fe)
		m.mu.Unlock()
		return fe
	}
	m.mu.Unlock()

	fe := m.build(layers, tile, len(b))
	m.mu.Lock()
	defer m.mu.Unlock()
	// Chains racing on one FLG build equal entries; keep the first.
	if old, ok := m.cur[string(b)]; ok {
		return old
	}
	m.insert(string(b), fe)
	return fe
}

// insert adds an entry to the current generation, first retiring it to the
// old one when the entry does not fit. m.mu must be held.
func (m *FLGMemo) insert(key string, fe *flgEntry) {
	half := m.budget / 2
	if fe.bytes > half {
		return
	}
	if m.curBytes+fe.bytes > half {
		m.old, m.oldBytes = m.cur, m.curBytes
		m.cur, m.curBytes = map[string]*flgEntry{}, 0
		m.evictions++
	}
	m.cur[key] = fe
	m.curBytes += fe.bytes
}

// build plans one FLG and costs each of its tiles.
func (m *FLGMemo) build(layers []graph.LayerID, tile, keyLen int) *flgEntry {
	fe := planFLG(m.g, layers, tile)
	// Fixed overhead: the entry, the plan header and two map slots.
	fe.bytes = 256 + 2*int64(keyLen)
	if fe.plan == nil {
		return &fe
	}
	p := fe.plan
	nl, nt := len(p.Layers), p.Tiles
	ni, n64 := slabLen(m.g, p)
	fe.slabs.fill(m.g, p, make([]int, ni), make([]int64, n64))
	// Layers, the region rows, their regions (6 ints each), the slabs and
	// the costs.
	fe.bytes += int64(8*nl + 2*nl*24 + 2*nl*nt*48 + 8*(ni+n64) + 16*nl*nt)
	fe.dur = make([]float64, nl*nt)
	fe.energy = make([]float64, nl*nt)
	for li, id := range p.Layers {
		for t, r := range p.Computed[li] {
			c := m.cs.Evaluate(tileRequest(m.g, id, r))
			fe.dur[t*nl+li], fe.energy[t*nl+li] = c.TimeNS, c.EnergyPJ
		}
	}
	return &fe
}

// planFLG runs the tiling planner for one FLG.
func planFLG(g *graph.Graph, layers []graph.LayerID, tile int) flgEntry {
	p, err := tiling.New(g, layers, tile)
	return flgEntry{plan: p, err: err}
}
