package tiling

import (
	"fmt"

	"soma/internal/graph"
)

// Region is a half-open 3-D slab of a feature map: batch x height x width.
// The channel axis is never split (splitting C would break fusion across
// more than two layers, Sec. IV-A1).
type Region struct {
	N0, N1 int
	H0, H1 int
	W0, W1 int
}

// Empty reports whether the region contains no elements.
func (r Region) Empty() bool { return r.N1 <= r.N0 || r.H1 <= r.H0 || r.W1 <= r.W0 }

// Elems returns the element count given the channel width.
func (r Region) Elems(c int) int64 {
	if r.Empty() {
		return 0
	}
	return int64(r.N1-r.N0) * int64(r.H1-r.H0) * int64(r.W1-r.W0) * int64(c)
}

// Union returns the bounding box of two regions (exact for our use: the
// inputs are always slabs of the same N range differing only along H).
func (r Region) Union(o Region) Region {
	if r.Empty() {
		return o
	}
	if o.Empty() {
		return r
	}
	return Region{
		N0: min(r.N0, o.N0), N1: max(r.N1, o.N1),
		H0: min(r.H0, o.H0), H1: max(r.H1, o.H1),
		W0: min(r.W0, o.W0), W1: max(r.W1, o.W1),
	}
}

// Overlap returns the element count shared by two regions.
func (r Region) Overlap(o Region, c int) int64 {
	x := Region{
		N0: max(r.N0, o.N0), N1: min(r.N1, o.N1),
		H0: max(r.H0, o.H0), H1: min(r.H1, o.H1),
		W0: max(r.W0, o.W0), W1: min(r.W1, o.W1),
	}
	return x.Elems(c)
}

func (r Region) String() string {
	return fmt.Sprintf("[n%d:%d h%d:%d w%d:%d]", r.N0, r.N1, r.H0, r.H1, r.W0, r.W1)
}

// Split is a factorization of the tiling number across the three divisible
// axes.
type Split struct{ TN, TH, TW int }

// Tiles is the realized tile count.
func (sp Split) Tiles() int { return sp.TN * sp.TH * sp.TW }

// ChooseSplit factors the requested tiling number T over a bounding shape,
// following the paper's heuristic: use the batch axis first (it has no halo),
// then split H and W as equally as possible. The realized tile count is
// <= T when the shape cannot absorb the whole factor (e.g. token sequences
// with W == 1, or FC layers with H == W == 1).
func ChooseSplit(t int, bound graph.Shape) Split {
	if t < 1 {
		t = 1
	}
	tn := largestDivisorAtMost(t, bound.N)
	rest := t / tn
	// Balance the remaining factor between H and W, H first; when one
	// axis cannot absorb its share, hand the factor to the other axis.
	th, tw := balancedPair(rest)
	if th > bound.H || tw > bound.W {
		tw = largestDivisorAtMost(rest, bound.W)
		th = rest / tw
		if th > bound.H {
			th = bound.H
		}
	}
	if th < 1 {
		th = 1
	}
	if tw < 1 {
		tw = 1
	}
	return Split{TN: tn, TH: th, TW: tw}
}

// largestDivisorAtMost finds the largest divisor of t not exceeding limit.
func largestDivisorAtMost(t, limit int) int {
	if limit < 1 {
		limit = 1
	}
	best := 1
	for d := 1; d*d <= t; d++ {
		if t%d != 0 {
			continue
		}
		if d <= limit && d > best {
			best = d
		}
		if q := t / d; q <= limit && q > best {
			best = q
		}
	}
	return best
}

// balancedPair factors f = a*b with a >= b and a-b minimized (a goes to H).
func balancedPair(f int) (a, b int) {
	if f < 1 {
		return 1, 1
	}
	b = 1
	for d := 1; d*d <= f; d++ {
		if f%d == 0 {
			b = d
		}
	}
	return f / b, b
}

// evenCut returns the i-th of k near-equal half-open segments of [0,n).
func evenCut(n, k, i int) (int, int) {
	return i * n / k, (i + 1) * n / k
}

// Plan is the tiling of one FLG: for every layer, the per-tile computed
// output region (owned slab grown by consumer-driven halo) and the disjoint
// owned region (what the tile contributes to the aggregate ofmap).
type Plan struct {
	// Layers is the FLG's layer sequence (the slice passed to New).
	Layers []graph.LayerID
	// Split is the realized axis factorization; Tiles == Split.Tiles().
	Split Split
	Tiles int
	// Computed[l][t] is the region layer Layers[l] evaluates for tile t,
	// including recomputed halo rows.
	Computed [][]Region
	// Owned[l][t] is the disjoint slab tile t contributes; owned regions
	// of one layer partition its output exactly.
	Owned [][]Region
}

// New computes the tiling plan of an FLG given its layer sequence (a
// contiguous slice of the Computing Order) and the requested tiling number.
// Halo propagation runs in reverse: a producer's tile must compute every row
// its in-FLG consumers' same-index tiles read. Global in-FLG dependencies
// are rejected unless the realized tile count is 1 (legality rule from
// DESIGN.md).
func New(g *graph.Graph, layers []graph.LayerID, t int) (*Plan, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("tiling: empty FLG")
	}
	bound := g.Layer(layers[0]).Out
	for _, id := range layers[1:] {
		s := g.Layer(id).Out
		bound.N = min(bound.N, s.N)
		bound.H = min(bound.H, s.H)
		bound.W = min(bound.W, s.W)
	}
	sp := ChooseSplit(t, bound)
	tiles := sp.Tiles()

	var inline [32]int
	lo, pos := localIndex(layers, inline[:0])
	local := func(id graph.LayerID) int {
		if i := int(id - lo); i >= 0 && i < len(pos) {
			return pos[i]
		}
		return -1
	}
	// Global deps are batch-local: splitting the batch axis is fine, but
	// spatial splits would starve the consumer of producer rows.
	if sp.TH*sp.TW > 1 {
		for _, id := range layers {
			for _, d := range g.Layer(id).Deps {
				if d.Global && local(d.Producer) >= 0 {
					return nil, fmt.Errorf("tiling: global dependency %s->%s inside spatially-split FLG (%dx%d)",
						g.Layer(d.Producer).Name, g.Layer(id).Name, sp.TH, sp.TW)
				}
			}
		}
	}
	// Barrier edges demand all predecessor tiles before any successor tile;
	// the tile-major enumeration of a multi-tile FLG interleaves them, so a
	// barrier may only sit inside an FLG that runs as a single tile.
	if tiles > 1 {
		for _, id := range layers {
			for _, a := range g.Layer(id).After {
				if local(a) >= 0 {
					return nil, fmt.Errorf("tiling: barrier %s->%s inside multi-tile FLG (%d tiles)",
						g.Layer(a).Name, g.Layer(id).Name, tiles)
				}
			}
		}
	}

	// New runs for every FLG of every parse, so the per-layer region rows
	// are carved from one backing array rather than allocated per layer.
	nl := len(layers)
	rows := make([][]Region, 2*nl)
	regions := make([]Region, 2*nl*tiles)
	for i := range rows {
		rows[i] = regions[i*tiles : (i+1)*tiles : (i+1)*tiles]
	}
	p := &Plan{
		Layers:   append([]graph.LayerID(nil), layers...),
		Split:    sp,
		Tiles:    tiles,
		Owned:    rows[:nl:nl],
		Computed: rows[nl:],
	}
	// Owned regions: an even split of each layer's own output shape.
	for i, id := range layers {
		s := g.Layer(id).Out
		ti := 0
		for n := 0; n < sp.TN; n++ {
			n0, n1 := evenCut(s.N, sp.TN, n)
			for h := 0; h < sp.TH; h++ {
				h0, h1 := evenCut(s.H, sp.TH, h)
				for w := 0; w < sp.TW; w++ {
					w0, w1 := evenCut(s.W, sp.TW, w)
					p.Owned[i][ti] = Region{n0, n1, h0, h1, w0, w1}
					ti++
				}
			}
		}
	}
	// Backward halo propagation: computed = owned U (needs of in-FLG
	// consumers' computed regions), folded consumer by consumer so each
	// consumer's FLG position is resolved once per layer.
	for i := nl - 1; i >= 0; i-- {
		id := layers[i]
		comp := p.Computed[i]
		copy(comp, p.Owned[i])
		for _, cid := range g.Consumers(id) {
			ci := local(cid)
			if ci <= i { // outside the FLG (-1) or not a later layer
				continue
			}
			c := g.Layer(cid)
			if depIsGlobal(c, id) {
				continue // only with tiles==1; full region already owned
			}
			for ti, r := range p.Computed[ci] {
				comp[ti] = comp[ti].Union(InputRegion(c, id, g, r))
			}
		}
	}
	return p, nil
}

// localIndex maps LayerIDs to FLG-local indices: pos[id-lo] is the index of
// layer id in layers, -1 for IDs in the FLG's range but outside the FLG. It
// spans only the FLG's own ID range, so its size follows the FLG rather than
// the graph, and it reuses buf's storage when the span fits.
func localIndex(layers []graph.LayerID, buf []int) (lo graph.LayerID, pos []int) {
	lo, hi := layers[0], layers[0]
	for _, id := range layers[1:] {
		lo, hi = min(lo, id), max(hi, id)
	}
	if span := int(hi-lo) + 1; span <= cap(buf) {
		pos = buf[:span]
	} else {
		pos = make([]int, span)
	}
	for i := range pos {
		pos[i] = -1
	}
	for i, id := range layers {
		pos[id-lo] = i
	}
	return lo, pos
}

// depIsGlobal reports whether consumer c's edge from producer is global.
func depIsGlobal(c *graph.Layer, producer graph.LayerID) bool {
	for _, d := range c.Deps {
		if d.Producer == producer && d.Global {
			return true
		}
	}
	return false
}

// InputRegion maps a consumer's output region to the producer-side region it
// reads through the consumer's kernel (identity for pointwise kinds, spans
// with halo for conv/pool). The producer's shape clamps the result.
func InputRegion(c *graph.Layer, producer graph.LayerID, g *graph.Graph, out Region) Region {
	ps := g.Layer(producer).Out
	k := c.K
	h0, h1 := graph.InSpan(out.H0, out.H1, k.KH, k.SH, k.PH, ps.H)
	w0, w1 := graph.InSpan(out.W0, out.W1, k.KW, k.SW, k.PW, ps.W)
	n0, n1 := out.N0, out.N1
	if n1 > ps.N {
		n1 = ps.N
	}
	if out.Empty() {
		return Region{}
	}
	return Region{N0: n0, N1: n1, H0: h0, H1: h1, W0: w0, W1: w1}
}

// CoverageOK verifies that each layer's owned regions partition its output:
// total element count matches and no two owned regions overlap. Tests use
// it as the oracle for Plan construction.
func (p *Plan) CoverageOK(g *graph.Graph) bool {
	for i, id := range p.Layers {
		s := g.Layer(id).Out
		var total int64
		for t := 0; t < p.Tiles; t++ {
			total += p.Owned[i][t].Elems(s.C)
			for u := t + 1; u < p.Tiles; u++ {
				if p.Owned[i][t].Overlap(p.Owned[i][u], s.C) != 0 {
					return false
				}
			}
		}
		if total != s.Elems() {
			return false
		}
	}
	return true
}
