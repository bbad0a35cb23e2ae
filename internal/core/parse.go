package core

import (
	"fmt"

	"soma/internal/coresched"
	"soma/internal/graph"
	"soma/internal/tiling"
)

// TensorKind classifies a DRAM tensor.
type TensorKind int

const (
	// LoadWeight streams a layer's parameters (or decode KV cache) from
	// DRAM into the GBUF once per execution.
	LoadWeight TensorKind = iota
	// LoadIfmap streams a feature-map slab a consuming tile needs from
	// DRAM (cross-LG dependency or network input).
	LoadIfmap
	// StoreOfmap writes a produced feature-map slab back to DRAM
	// (cross-LG dependency or network output).
	StoreOfmap
)

func (k TensorKind) String() string {
	switch k {
	case LoadWeight:
		return "W"
	case LoadIfmap:
		return "I"
	case StoreOfmap:
		return "O"
	default:
		return "?"
	}
}

// IsLoad reports whether the tensor moves DRAM -> GBUF.
func (k TensorKind) IsLoad() bool { return k != StoreOfmap }

// Tile is one entry of the global computing sequence.
type Tile struct {
	// Seq is the position in the compute pipeline (dense, 0-based).
	Seq int
	// Layer is the layer this tile evaluates.
	Layer graph.LayerID
	// FLG / LG are the fusion-group indices the tile belongs to.
	FLG, LG int
	// Index is the tile index within the FLG (the i of "A_i").
	Index int
	// Region is the computed output slab including recomputed halo rows;
	// Own is the disjoint contribution to the aggregate ofmap.
	Region, Own tiling.Region
}

// Tensor is one DRAM tensor with its Living Duration. Start (loads) and End
// (stores) are the DLSA-adjustable fields; everything else is fixed by the
// LFA parse.
type Tensor struct {
	ID   int
	Kind TensorKind
	// Layer is the consumer for loads and the producer for stores.
	Layer graph.LayerID
	// Source is the producing layer of an ifmap load (possibly an Input
	// pseudo-layer); None otherwise.
	Source graph.LayerID
	// Bytes is the transfer size.
	Bytes int64

	// FirstUse is the seq of the first consuming tile (loads). The load
	// must complete before that tile starts, and Start may range over
	// [0, FirstUse].
	FirstUse int
	// Release is the fixed buffer-release point of a load (exclusive
	// seq): after the last consuming tile (ifmaps) or after the FLG's
	// last tile (weights).
	Release int
	// Producer is the seq of the tile generating a store; -1 for loads.
	Producer int
	// OnChipHi extends a store's buffer interval when the same ofmap
	// slab is also consumed on-chip (exclusive seq; 0 if none).
	OnChipHi int

	// Start is the Living Duration start of a load: the transfer may
	// begin once every tile with seq < Start has finished.
	Start int
	// End is the Living Duration end of a store: tile End cannot start
	// until the transfer finished. End == nTiles means "by the end of
	// the execution".
	End int
}

// IDRange is the half-open tensor ID window [Lo, Hi).
type IDRange struct{ Lo, Hi int }

// Has reports whether id lies in the window.
func (r IDRange) Has(id int) bool { return uint(id-r.Lo) < uint(r.Hi-r.Lo) }

// Interval is an on-chip buffer occupation over tile seqs [Lo, Hi).
type Interval struct {
	Lo, Hi int
	Bytes  int64
}

// Schedule is a fully parsed encoding: the compute sequence, the DRAM tensor
// set in DRAM Tensor Order, and all buffer bookkeeping. It is the object the
// DLSA exploration stage mutates and the evaluator consumes.
type Schedule struct {
	G   *graph.Graph
	Enc *Encoding

	Tiles []Tile
	// Tensors is indexed by Tensor.ID.
	Tensors []Tensor
	// Order is the DRAM Tensor Order: a permutation of tensor IDs.
	Order []int
	// OnChip are the static on-chip fmap intervals (same-FLG tile slabs
	// and cross-FLG aggregates).
	OnChip []Interval
	// Stores is indexed by LayerID: Parse emits each layer's stores
	// consecutively, so Stores[l] holds exactly the IDs of layer l's
	// store tensors, and is empty for a layer that stores nothing.
	Stores []IDRange
}

// WaitsOn returns the stores load t must wait for - its producer's data
// must reach DRAM first: every store of its Source layer. The window is
// empty for stores, weight loads and loads of graph inputs. The simulator
// relies on this: a load stalls iff the Source layer's last store in the
// DRAM Tensor Order has not committed.
func (s *Schedule) WaitsOn(t *Tensor) IDRange {
	if t.Kind != LoadIfmap {
		return IDRange{}
	}
	return s.Stores[t.Source]
}

// NumTiles returns the compute-sequence length.
func (s *Schedule) NumTiles() int { return len(s.Tiles) }

// Clone deep-copies the schedule (tiles, intervals and store windows are
// immutable between DLSA moves, so they are shared; tensors and order are
// copied).
func (s *Schedule) Clone() *Schedule {
	c := *s
	c.Tensors = append([]Tensor(nil), s.Tensors...)
	c.Order = append([]int(nil), s.Order...)
	return &c
}

// layerInfo is Parse's per-layer bookkeeping, indexed by LayerID (Input
// layers keep the zero value).
type layerInfo struct {
	flg, lg int
	// tiles lists the layer's tile seqs in order, a window of an array
	// shared by all layers.
	tiles []int
	// store marks an ofmap written back to DRAM: a consumer sits in
	// another LG, or the layer is a network output.
	store bool
	// lgHi is the exclusive seq after the last tile of any same-LG
	// consumer, flgHi the same over same-LG consumers in other FLGs; 0
	// when there is none.
	lgHi, flgHi int
}

// Parse lowers an encoding into a Schedule, or fails when the encoding is
// illegal (bad order/cuts, or a global dependency inside a multi-tile FLG).
// The resulting schedule carries the classical double-buffer DLSA; callers
// explore alternatives via the DLSA methods. Parse is an Arena parse into
// fresh storage.
func Parse(g *graph.Graph, e *Encoding) (*Schedule, error) {
	var a Arena
	s, err := a.Parse(g, e, nil)
	if err != nil {
		return nil, err
	}
	c := *s // leaves the arena's bookkeeping to the collector
	return &c, nil
}

// Arena is reusable parse storage. The stage-1 annealer keeps nothing of a
// cache-missing candidate but its Metrics, so each of its chains parses
// every miss into one Arena and reuses the tile, tensor, order, on-chip and
// per-layer buffers of the previous parse. An Arena is not safe for
// concurrent use.
type Arena struct {
	s        Schedule
	flgs     []flgEntry
	memoized bool // flgs came from a memo, costs included
	flgStart []int
	info     []layerInfo
	seqs     []int
	// scratch backs ApplyDoubleBuffer's counting sort, key the memo's
	// lookup key.
	scratch []int
	key     []byte
}

// resize returns s with length n, reusing its storage when it is large
// enough. Reused elements keep their old values.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Parse lowers e like the package-level Parse, into the arena's storage:
// the returned schedule, and every slice it holds, is only valid until the
// next Parse on a. With a non-nil memo (built for g), FLG plans come from
// the memo, and TileCosts reports the parsed tiles' memoized costs.
//
// The stage-1 annealer parses every cache-missing candidate, so Parse keeps
// its bookkeeping in dense LayerID-indexed slices and sizes every output
// once: into fresh storage, its allocations grow with the FLG count, not
// with the tile count; into a warm arena with a warm memo it allocates only
// in Encoding.Check.
func (a *Arena) Parse(g *graph.Graph, e *Encoding, memo *FLGMemo) (*Schedule, error) {
	if memo != nil && memo.g != g {
		panic("core: FLG memo built for another graph")
	}
	if err := e.Check(g); err != nil {
		return nil, err
	}
	s := &a.s // every field is set below
	s.G, s.Enc = g, e
	a.memoized = memo != nil

	// Tiling plans. FLGs run in order, each enumerated tile-major, so tile
	// t of the li-th layer of FLG f has seq flgStart[f] + t*len(FLG) + li.
	nf := e.NumFLGs()
	a.flgs = resize(a.flgs, nf)
	flgStart := resize(a.flgStart, nf+1)
	a.flgStart = flgStart
	flgStart[0] = 0
	for f := range a.flgs {
		if memo != nil {
			a.flgs[f] = *memo.get(e.FLGLayers(f), e.Tile[f], &a.key)
		} else {
			a.flgs[f] = planFLG(g, e.FLGLayers(f), e.Tile[f])
		}
		plan := a.flgs[f].plan
		if err := a.flgs[f].err; err != nil {
			return nil, fmt.Errorf("core: FLG %d: %w", f, err)
		}
		flgStart[f+1] = flgStart[f] + plan.Tiles*len(plan.Layers)
	}
	n := flgStart[nf]
	eb := int64(g.ElemBytes)

	// The global tile sequence and each layer's tile seqs.
	info := resize(a.info, len(g.Layers))
	a.info = info
	clear(info)
	seqs := resize(a.seqs, n)
	a.seqs = seqs
	s.Tiles = resize(s.Tiles, n)
	lg := 0
	for f := range a.flgs {
		plan := a.flgs[f].plan
		if f > 0 && e.IsDRAM[f-1] {
			lg++
		}
		nl, nt := len(plan.Layers), plan.Tiles
		for li, id := range plan.Layers {
			lo := flgStart[f] + li*nt
			tiles := seqs[lo : lo+nt : lo+nt]
			for t := range tiles {
				seq := flgStart[f] + t*nl + li
				tiles[t] = seq
				s.Tiles[seq] = Tile{
					Seq: seq, Layer: id, FLG: f, LG: lg, Index: t,
					Region: plan.Computed[li][t],
					Own:    plan.Owned[li][t],
				}
			}
			info[id] = layerInfo{flg: f, lg: lg, tiles: tiles}
		}
	}

	// Per-layer store obligations and on-chip lifetimes, plus upper bounds
	// on the tensor and interval counts (emission skips zero-byte slabs)
	// so neither list grows while it is filled.
	nStores, nLoads, nOnChip := 0, 0, 0
	for _, id := range e.Order {
		li := &info[id]
		li.store = g.IsOutput(id)
		for _, cid := range g.Consumers(id) {
			ci := &info[cid]
			if ci.lg != li.lg {
				li.store = true
				continue
			}
			hi := ci.tiles[len(ci.tiles)-1] + 1
			li.lgHi = max(li.lgHi, hi)
			if ci.flg != li.flg {
				li.flgHi = max(li.flgHi, hi)
			}
		}
		l := g.Layer(id)
		nt := len(li.tiles)
		if li.store {
			nStores += nt
		} else if li.flgHi > 0 {
			nOnChip += nt
		}
		switch {
		case l.WeightBytes == 0:
		case l.WeightsPerSample:
			nLoads += nt
		default:
			nLoads++
		}
		for _, d := range l.Deps {
			pi := &info[d.Producer]
			switch {
			case g.Layer(d.Producer).Kind == graph.Input || pi.lg != li.lg:
				if d.Global && nt == 1 {
					nLoads++
				} else {
					nLoads += nt
				}
			case pi.flg == li.flg:
				nOnChip += len(pi.tiles)
			}
		}
	}
	s.Tensors = resize(s.Tensors, nStores+nLoads)[:0]
	s.OnChip = resize(s.OnChip, nOnChip)[:0]

	// Stores first, one per tile of each stored layer, so a layer's store
	// IDs form the contiguous window Stores[id].
	s.Stores = resize(s.Stores, len(g.Layers))
	clear(s.Stores)
	for _, id := range e.Order {
		li := &info[id]
		if !li.store {
			continue
		}
		lo := len(s.Tensors)
		outC := g.Layer(id).Out.C
		for _, seq := range li.tiles {
			bytes := s.Tiles[seq].Own.Elems(outC) * eb
			if bytes == 0 {
				continue
			}
			s.Tensors = append(s.Tensors, Tensor{
				ID: len(s.Tensors), Kind: StoreOfmap, Layer: id,
				Source: graph.None, Bytes: bytes,
				// On-chip consumers extend the buffer life of
				// the stored slab.
				FirstUse: seq, Producer: seq, OnChipHi: li.lgHi,
				Start: seq, End: n,
			})
		}
		s.Stores[id] = IDRange{lo, len(s.Tensors)}
	}

	// Weight loads: one resident tensor per weighted layer, released at
	// FLG completion. Per-sample weight state (decode KV caches) instead
	// streams per tile, scaled to the batch slice the tile covers.
	for _, id := range e.Order {
		l := g.Layer(id)
		if l.WeightBytes == 0 {
			continue
		}
		li := &info[id]
		if l.WeightsPerSample {
			for _, seq := range li.tiles {
				r := s.Tiles[seq].Region
				bytes := l.WeightBytes * int64(r.N1-r.N0) / int64(l.Out.N)
				if bytes == 0 {
					continue
				}
				s.Tensors = append(s.Tensors, Tensor{
					ID: len(s.Tensors), Kind: LoadWeight, Layer: id,
					Source: graph.None, Bytes: bytes,
					FirstUse: seq, Release: seq + 1,
					Producer: -1, Start: seq,
				})
			}
			continue
		}
		first := li.tiles[0]
		s.Tensors = append(s.Tensors, Tensor{
			ID: len(s.Tensors), Kind: LoadWeight, Layer: id,
			Source: graph.None, Bytes: l.WeightBytes,
			FirstUse: first, Release: flgStart[li.flg+1],
			Producer: -1, Start: first,
		})
	}

	// Ifmap loads and on-chip intervals, per dependency edge.
	for _, id := range e.Order {
		l := g.Layer(id)
		li := &info[id]
		myTiles := li.tiles
		for _, d := range l.Deps {
			p := g.Layer(d.Producer)
			pi := &info[d.Producer]
			fromDRAM := p.Kind == graph.Input || pi.lg != li.lg
			switch {
			case fromDRAM && d.Global:
				// A single-tile consumer keeps the whole operand
				// resident; a tiled consumer streams its batch
				// rows' full spatial extent per tile (the only way
				// attention over a large context fits the buffer -
				// at the price of re-reading it under spatial
				// splits, a trade-off the SA owns).
				full := p.Out.Bytes(g.ElemBytes)
				if len(myTiles) == 1 {
					s.Tensors = append(s.Tensors, Tensor{
						ID: len(s.Tensors), Kind: LoadIfmap, Layer: id,
						Source: d.Producer, Bytes: full,
						FirstUse: myTiles[0], Release: myTiles[len(myTiles)-1] + 1,
						Producer: -1, Start: myTiles[0],
					})
					continue
				}
				for _, seq := range myTiles {
					r := s.Tiles[seq].Region
					bytes := full * int64(r.N1-r.N0) / int64(l.Out.N)
					if bytes == 0 {
						continue
					}
					s.Tensors = append(s.Tensors, Tensor{
						ID: len(s.Tensors), Kind: LoadIfmap, Layer: id,
						Source: d.Producer, Bytes: bytes,
						FirstUse: seq, Release: seq + 1,
						Producer: -1, Start: seq,
					})
				}
			case fromDRAM:
				// Per-tile slab loads (with halo duplication).
				for _, seq := range myTiles {
					r := tiling.InputRegion(l, d.Producer, g, s.Tiles[seq].Region)
					bytes := r.Elems(p.Out.C) * eb
					if bytes == 0 {
						continue
					}
					s.Tensors = append(s.Tensors, Tensor{
						ID: len(s.Tensors), Kind: LoadIfmap, Layer: id,
						Source: d.Producer, Bytes: bytes,
						FirstUse: seq, Release: seq + 1,
						Producer: -1, Start: seq,
					})
				}
			case pi.flg == li.flg:
				// Same FLG: the producer's computed slab of tile t
				// lives until this consumer's tile t finishes.
				for t, pseq := range pi.tiles {
					bytes := s.Tiles[pseq].Region.Elems(p.Out.C) * eb
					s.OnChip = append(s.OnChip, Interval{Lo: pseq, Hi: myTiles[t] + 1, Bytes: bytes})
				}
			default:
				// Same LG, earlier FLG: the producer's owned slabs
				// aggregate on-chip until this consumer finishes.
				// Emitted once per producer below to avoid double
				// counting across multiple consumers.
			}
		}
	}

	// Cross-FLG same-LG aggregates: one interval per producer tile,
	// spanning to the last cross-FLG consumer. Skips producers whose data
	// already persists through a store's OnChipHi extension.
	for _, id := range e.Order {
		li := &info[id]
		if w := s.Stores[id]; w.Lo < w.Hi || li.flgHi == 0 {
			continue
		}
		outC := g.Layer(id).Out.C
		for _, pseq := range li.tiles {
			bytes := s.Tiles[pseq].Own.Elems(outC) * eb
			if bytes > 0 {
				s.OnChip = append(s.OnChip, Interval{Lo: pseq, Hi: li.flgHi, Bytes: bytes})
			}
		}
	}

	s.Order = resize(s.Order, len(s.Tensors))
	for i := range s.Order {
		s.Order[i] = i
	}
	a.scratch = s.applyDoubleBuffer(a.scratch)
	return s, nil
}

// TileCosts copies the memoized compute time and energy of every tile of
// the last parse, in seq order, into dur and energy (each of its tile
// count). It reports false, copying nothing, when the parse took no costs
// from a memo.
func (a *Arena) TileCosts(dur, energy []float64) bool {
	if !a.memoized {
		return false
	}
	for f := range a.flgs {
		copy(dur[a.flgStart[f]:], a.flgs[f].dur)
		copy(energy[a.flgStart[f]:], a.flgs[f].energy)
	}
	return true
}

// TileRequest builds the core-array scheduler request of tile i.
func (s *Schedule) TileRequest(i int) coresched.Request {
	tl := &s.Tiles[i]
	return tileRequest(s.G, tl.Layer, tl.Region)
}

// tileRequest builds the core-array scheduler request of the tile computing
// region of layer id: it depends on nothing else, which is what lets an
// FLGMemo cost an FLG's tiles once.
func tileRequest(g *graph.Graph, id graph.LayerID, region tiling.Region) coresched.Request {
	l := g.Layer(id)
	eb := int64(g.ElemBytes)
	regionElems := region.Elems(l.Out.C)
	fullElems := l.Out.Elems()
	ops := int64(float64(l.Ops) * float64(regionElems) / float64(fullElems))

	var inBytes int64
	inC := 1
	for di, d := range l.Deps {
		p := g.Layer(d.Producer)
		if di == 0 {
			inC = p.Out.C
		}
		if d.Global {
			inBytes += p.Out.Bytes(g.ElemBytes) *
				int64(region.N1-region.N0) / int64(l.Out.N)
			continue
		}
		r := tiling.InputRegion(l, d.Producer, g, region)
		inBytes += r.Elems(p.Out.C) * eb
	}
	wBytes := l.WeightBytes
	if l.WeightsPerSample {
		wBytes = wBytes * int64(region.N1-region.N0) / int64(l.Out.N)
	}
	return coresched.Request{
		Kind:     l.Kind,
		OutElems: region.Elems(1),
		OutC:     l.Out.C,
		InC:      inC,
		KH:       l.K.KH, KW: l.K.KW,
		InBytes:     inBytes,
		OutBytes:    regionElems * eb,
		WeightBytes: wBytes,
		Ops:         ops,
		ElemBytes:   g.ElemBytes,
	}
}

// BufferUsage returns the buffer occupancy at each tile seq, combining the
// static on-chip intervals with the Living Durations of the DRAM tensors.
func (s *Schedule) BufferUsage() []int64 { return s.BufferUsageInto(nil) }

// BufferUsageInto is BufferUsage computed in buf's storage when its
// capacity exceeds the tile count.
func (s *Schedule) BufferUsageInto(buf []int64) []int64 {
	n := s.NumTiles()
	diff := resize(buf, n+1)
	clear(diff)
	addIv := func(lo, hi int, b int64) {
		if lo < 0 {
			lo = 0
		}
		if hi > n {
			hi = n
		}
		if lo >= hi || b == 0 {
			return
		}
		diff[lo] += b
		diff[hi] -= b
	}
	for _, iv := range s.OnChip {
		addIv(iv.Lo, iv.Hi, iv.Bytes)
	}
	for i := range s.Tensors {
		t := &s.Tensors[i]
		if t.Kind.IsLoad() {
			addIv(t.Start, t.Release, t.Bytes)
		} else {
			hi := t.End
			if t.OnChipHi > hi {
				hi = t.OnChipHi
			}
			addIv(t.Producer, hi, t.Bytes)
		}
	}
	// Prefix sums in place: usage at seq i is the sum of diff[0..i].
	var acc int64
	for i := 0; i < n; i++ {
		acc += diff[i]
		diff[i] = acc
	}
	return diff[:n]
}

// PeakBuffer returns the maximum buffer occupancy over the execution.
func (s *Schedule) PeakBuffer() int64 {
	var peak int64
	for _, u := range s.BufferUsage() {
		if u > peak {
			peak = u
		}
	}
	return peak
}

// TotalDRAMBytes sums all DRAM tensor sizes.
func (s *Schedule) TotalDRAMBytes() int64 {
	var b int64
	for i := range s.Tensors {
		b += s.Tensors[i].Bytes
	}
	return b
}

// Stats summarizes the schedule's fusion structure (Sec. VI-B metrics).
type Stats struct {
	Tiles, Tensors int
	FLGs, LGs      int
	DRAMBytes      int64
}

// Summarize computes the fusion statistics of the schedule.
func (s *Schedule) Summarize() Stats {
	return Stats{
		Tiles:     s.NumTiles(),
		Tensors:   len(s.Tensors),
		FLGs:      s.Enc.NumFLGs(),
		LGs:       s.Enc.NumLGs(),
		DRAMBytes: s.TotalDRAMBytes(),
	}
}
