package core

import (
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

// Living returns the tensor's adjustable Living Duration field: Start for
// loads, End for stores. The other one is fixed by the parse, so it is the
// one value per tensor a canonical key holds.
func (t *Tensor) Living() int {
	if t.Kind.IsLoad() {
		return t.Start
	}
	return t.End
}

// The three rules below are everything the Living Duration decides. The
// simulator, the Buffer Allocator's occupancy profile and the instruction
// generator all read them here.

// Wait returns the tile seq whose completion the transfer waits for: the
// tile before Start for a load (-1, none, when Start is 0), the producing
// tile for a store.
func (t *Tensor) Wait() int {
	if t.Kind.IsLoad() {
		return t.Start - 1
	}
	return t.Producer
}

// Gate returns the tile seq, out of n, that cannot start before the
// transfer has completed: a load's first consuming tile, a store's Living
// Duration end, or -1 for a store due only by the end of the execution
// (End == n).
func (t *Tensor) Gate(n int) int {
	switch {
	case t.Kind.IsLoad():
		return t.FirstUse
	case t.End < n:
		return t.End
	}
	return -1
}

// Live returns the tile seqs [lo, hi) over which the tensor holds buffer:
// a load from Start to its fixed release, a store from its producing tile
// to the later of End and the end of its on-chip consumption.
func (t *Tensor) Live() (lo, hi int) {
	if t.Kind.IsLoad() {
		return t.Start, t.Release
	}
	return t.Producer, max(t.End, t.OnChipHi)
}

// livingRange returns the legal range [lo, hi] of the Living Duration out
// of n tiles: a load starts no later than its first use and not before
// tile zero; a store ends after its producing tile and no later than the
// end of execution.
func (t *Tensor) livingRange(n int) (lo, hi int) {
	if t.Kind.IsLoad() {
		return 0, t.FirstUse
	}
	return t.Producer + 1, n
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

	// plans are the FLGs' tiling plans, flgStart each FLG's first seq:
	// they hold the tiles' regions.
	plans    []*tiling.Plan
	flgStart []int
}

// Region returns the output slab tile seq computes, including recomputed
// halo rows.
func (s *Schedule) Region(seq int) tiling.Region {
	p, li, t := s.tilePlan(seq)
	return p.Computed[li][t]
}

// Own returns tile seq's disjoint contribution to its layer's aggregate
// ofmap.
func (s *Schedule) Own(seq int) tiling.Region {
	p, li, t := s.tilePlan(seq)
	return p.Owned[li][t]
}

// tilePlan locates tile seq in its FLG's plan: layer li, tile t.
func (s *Schedule) tilePlan(seq int) (p *tiling.Plan, li, t int) {
	tl := &s.Tiles[seq]
	p = s.plans[tl.FLG]
	return p, seq - s.flgStart[tl.FLG] - tl.Index*len(p.Layers), tl.Index
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

// TileRequest builds the core-array scheduler request of tile i.
func (s *Schedule) TileRequest(i int) coresched.Request {
	return tileRequest(s.G, s.Tiles[i].Layer, s.Region(i))
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
	for _, iv := range s.OnChip {
		AddUsage(diff, iv.Lo, iv.Hi, iv.Bytes)
	}
	for i := range s.Tensors {
		lo, hi := s.Tensors[i].Live()
		AddUsage(diff, lo, hi, s.Tensors[i].Bytes)
	}
	// Prefix sums in place: usage at seq i is the sum of diff[0..i].
	var acc int64
	for i := 0; i < n; i++ {
		acc += diff[i]
		diff[i] = acc
	}
	return diff[:n]
}

// AddUsage adds an occupation of b bytes over seqs [lo, hi), clamped to
// the n = len(diff)-1 tiles, to the buffer-usage difference array diff:
// usage at seq i is the sum of diff[0..i].
func AddUsage(diff []int64, lo, hi int, b int64) {
	lo, hi = max(lo, 0), min(hi, len(diff)-1)
	if lo >= hi || b == 0 {
		return
	}
	diff[lo] += b
	diff[hi] -= b
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
