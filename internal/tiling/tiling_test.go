package tiling

import (
	"testing"
	"testing/quick"

	"soma/internal/graph"
)

// sh and kr build keyed Shape/Kernel literals compactly.
func sh(n, c, h, w int) graph.Shape { return graph.Shape{N: n, C: c, H: h, W: w} }

func kr(kh, kw, s, sw, ph, pw int) graph.Kernel {
	return graph.Kernel{KH: kh, KW: kw, SH: s, SW: sw, PH: ph, PW: pw}
}

func convChain(t *testing.T) (*graph.Graph, []graph.LayerID) {
	t.Helper()
	g := graph.New("c", 1)
	in := g.Add(graph.Layer{Name: "in", Kind: graph.Input, Out: sh(1, 3, 32, 32)})
	a := g.Add(graph.Layer{Name: "a", Kind: graph.Conv, Deps: []graph.Dep{{Producer: in}},
		Out: sh(1, 16, 32, 32), K: kr(3, 3, 1, 1, 1, 1), WeightBytes: 432, Ops: 2 * 3 * 16 * 9 * 32 * 32})
	b := g.Add(graph.Layer{Name: "b", Kind: graph.Conv, Deps: []graph.Dep{{Producer: a}},
		Out: sh(1, 16, 32, 32), K: kr(3, 3, 1, 1, 1, 1), WeightBytes: 2304, Ops: 2 * 16 * 16 * 9 * 32 * 32})
	c := g.Add(graph.Layer{Name: "c", Kind: graph.Pool, Deps: []graph.Dep{{Producer: b}},
		Out: sh(1, 16, 16, 16), K: kr(2, 2, 2, 2, 0, 0), Ops: 16 * 16 * 16 * 4})
	return g, []graph.LayerID{a, b, c}
}

func TestRegionBasics(t *testing.T) {
	r := Region{0, 1, 0, 8, 0, 8}
	if r.Empty() {
		t.Fatal("non-empty region reported empty")
	}
	if r.Elems(4) != 1*8*8*4 {
		t.Fatalf("Elems = %d", r.Elems(4))
	}
	if (Region{}).Elems(4) != 0 {
		t.Fatal("empty region must have zero elems")
	}
	u := r.Union(Region{0, 1, 6, 12, 0, 8})
	if u.H0 != 0 || u.H1 != 12 {
		t.Fatalf("Union = %v", u)
	}
	if r.Union(Region{}) != r || (Region{}).Union(r) != r {
		t.Fatal("union with empty must be identity")
	}
	if r.Overlap(Region{0, 1, 6, 12, 0, 8}, 1) != 1*2*8 {
		t.Fatalf("Overlap = %d", r.Overlap(Region{0, 1, 6, 12, 0, 8}, 1))
	}
}

func TestChooseSplitBatchFirst(t *testing.T) {
	// Batch 4, T=4: all four tiles on the batch axis.
	sp := ChooseSplit(4, graph.Shape{N: 4, C: 8, H: 32, W: 32})
	if sp != (Split{TN: 4, TH: 1, TW: 1}) {
		t.Fatalf("split = %+v", sp)
	}
	// Batch 1, T=4: the paper's Fig. 2 example splits H and W by 2 each.
	sp = ChooseSplit(4, graph.Shape{N: 1, C: 8, H: 32, W: 32})
	if sp != (Split{TN: 1, TH: 2, TW: 2}) {
		t.Fatalf("split = %+v", sp)
	}
	// Batch 2, T=8: 2 on batch, remaining 4 balanced across H/W.
	sp = ChooseSplit(8, graph.Shape{N: 2, C: 8, H: 32, W: 32})
	if sp != (Split{TN: 2, TH: 2, TW: 2}) {
		t.Fatalf("split = %+v", sp)
	}
	// Odd factor prefers H over W.
	sp = ChooseSplit(2, graph.Shape{N: 1, C: 8, H: 32, W: 32})
	if sp != (Split{TN: 1, TH: 2, TW: 1}) {
		t.Fatalf("split = %+v", sp)
	}
}

func TestChooseSplitClamping(t *testing.T) {
	// Token sequences have W=1: all spatial splitting lands on H.
	sp := ChooseSplit(8, graph.Shape{N: 1, C: 768, H: 512, W: 1})
	if sp.TW != 1 || sp.Tiles() > 8 {
		t.Fatalf("split = %+v", sp)
	}
	// FC output 1x1: nothing to split spatially.
	sp = ChooseSplit(16, graph.Shape{N: 1, C: 1000, H: 1, W: 1})
	if sp.Tiles() != 1 {
		t.Fatalf("split = %+v", sp)
	}
	// T=0 degrades to 1.
	if ChooseSplit(0, graph.Shape{N: 1, C: 1, H: 8, W: 8}).Tiles() != 1 {
		t.Fatal("T=0 must clamp to a single tile")
	}
}

func TestChooseSplitProperty(t *testing.T) {
	f := func(tRaw, nRaw, hRaw, wRaw uint8) bool {
		tn := int(tRaw%32) + 1
		s := graph.Shape{N: int(nRaw%8) + 1, C: 16, H: int(hRaw%64) + 1, W: int(wRaw%64) + 1}
		sp := ChooseSplit(tn, s)
		if sp.TN < 1 || sp.TH < 1 || sp.TW < 1 {
			return false
		}
		if sp.TN > s.N || sp.TH > s.H || sp.TW > s.W {
			return false
		}
		return sp.Tiles() <= tn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanCoverage(t *testing.T) {
	g, ids := convChain(t)
	for _, tn := range []int{1, 2, 4, 8} {
		p, err := New(g, ids, tn)
		if err != nil {
			t.Fatalf("T=%d: %v", tn, err)
		}
		if !p.CoverageOK(g) {
			t.Fatalf("T=%d: owned regions do not partition outputs", tn)
		}
	}
}

// overlap returns a layer's computed/owned element ratio: 1 means no
// recomputation, larger values measure the backtracking halo.
func overlap(p *Plan, g *graph.Graph, layerIdx int) float64 {
	c := g.Layer(p.Layers[layerIdx]).Out.C
	var comp, own int64
	for t := 0; t < p.Tiles; t++ {
		comp += p.Computed[layerIdx][t].Elems(c)
		own += p.Owned[layerIdx][t].Elems(c)
	}
	if own == 0 {
		return 1
	}
	return float64(comp) / float64(own)
}

func TestPlanHaloGrowsBackwards(t *testing.T) {
	g, ids := convChain(t)
	p, err := New(g, ids, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The pool (last layer) computes exactly its owned regions.
	fPool := overlap(p, g, 2)
	if fPool != 1.0 {
		t.Fatalf("pool overlap = %g, want 1", fPool)
	}
	// The 2x2/s2 pool itself creates no halo, so b computes exactly its
	// owned regions; a, feeding a 3x3 conv, must recompute halo rows.
	fa, fb := overlap(p, g, 0), overlap(p, g, 1)
	if fb != 1.0 {
		t.Fatalf("b overlap = %g, want 1 (pool has no halo)", fb)
	}
	if fa <= 1.0 {
		t.Fatalf("a overlap = %g, want > 1 (3x3 conv consumer)", fa)
	}
}

func TestPlanHaloAccumulatesThroughConvStack(t *testing.T) {
	// Three chained 3x3 convs: halo must strictly grow towards the front.
	g := graph.New("stack", 1)
	in := g.Add(graph.Layer{Name: "in", Kind: graph.Input, Out: sh(1, 4, 48, 48)})
	ids := make([]graph.LayerID, 0, 3)
	prev := in
	for i := 0; i < 3; i++ {
		id := g.Add(graph.Layer{Kind: graph.Conv, Deps: []graph.Dep{{Producer: prev}},
			Out: sh(1, 4, 48, 48), K: kr(3, 3, 1, 1, 1, 1), Ops: 1000})
		ids = append(ids, id)
		prev = id
	}
	p, err := New(g, ids, 4)
	if err != nil {
		t.Fatal(err)
	}
	f0, f1, f2 := overlap(p, g, 0), overlap(p, g, 1), overlap(p, g, 2)
	if !(f0 > f1 && f1 > f2 && f2 == 1.0) {
		t.Fatalf("halo must accumulate backwards: %g %g %g", f0, f1, f2)
	}
}

func TestPlanSingleTileNoHalo(t *testing.T) {
	g, ids := convChain(t)
	p, err := New(g, ids, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Tiles != 1 {
		t.Fatalf("tiles = %d", p.Tiles)
	}
	for i := range ids {
		if f := overlap(p, g, i); f != 1.0 {
			t.Fatalf("layer %d overlap = %g with one tile", i, f)
		}
	}
}

func TestPlanFinerTilesMoreOverlap(t *testing.T) {
	g, ids := convChain(t)
	p2, _ := New(g, ids, 2)
	p8, _ := New(g, ids, 8)
	if !(overlap(p8, g, 0) > overlap(p2, g, 0)) {
		t.Fatalf("finer tiling must increase halo: T8=%g T2=%g",
			overlap(p8, g, 0), overlap(p2, g, 0))
	}
}

func TestPlanRejectsGlobalDepInsideFLG(t *testing.T) {
	g := graph.New("glob", 1)
	in := g.Add(graph.Layer{Name: "in", Kind: graph.Input, Out: sh(1, 8, 16, 1)})
	q := g.Add(graph.Layer{Name: "q", Kind: graph.GEMM, Deps: []graph.Dep{{Producer: in}},
		Out: sh(1, 8, 16, 1), WeightBytes: 64, Ops: 100})
	k := g.Add(graph.Layer{Name: "k", Kind: graph.GEMM, Deps: []graph.Dep{{Producer: in}},
		Out: sh(1, 8, 16, 1), WeightBytes: 64, Ops: 100})
	qk := g.Add(graph.Layer{Name: "qk", Kind: graph.MatMul,
		Deps: []graph.Dep{{Producer: q}, {Producer: k, Global: true}},
		Out:  sh(1, 16, 16, 1), Ops: 100})
	if _, err := New(g, []graph.LayerID{q, k, qk}, 4); err == nil {
		t.Fatal("global dep inside multi-tile FLG must be rejected")
	}
	// With a single tile it is legal.
	if _, err := New(g, []graph.LayerID{q, k, qk}, 1); err != nil {
		t.Fatalf("single-tile FLG rejected: %v", err)
	}
}

// TestPlanRejectsBarrierInsideFLG: a barrier demands every predecessor tile
// before any successor tile; the tile-major enumeration of a multi-tile FLG
// interleaves them, so such groups are illegal (single-tile FLGs are fine).
func TestPlanRejectsBarrierInsideFLG(t *testing.T) {
	g := graph.New("barrier", 1)
	inA := g.Add(graph.Layer{Name: "inA", Kind: graph.Input, Out: sh(1, 8, 16, 1)})
	a := g.Add(graph.Layer{Name: "a", Kind: graph.GEMM, Deps: []graph.Dep{{Producer: inA}},
		Out: sh(1, 8, 16, 1), WeightBytes: 64, Ops: 100})
	inB := g.Add(graph.Layer{Name: "inB", Kind: graph.Input, Out: sh(1, 8, 16, 1)})
	b := g.Add(graph.Layer{Name: "b", Kind: graph.GEMM, Deps: []graph.Dep{{Producer: inB}},
		After: []graph.LayerID{a}, Out: sh(1, 8, 16, 1), WeightBytes: 64, Ops: 100})
	if _, err := New(g, []graph.LayerID{a, b}, 4); err == nil {
		t.Fatal("barrier inside multi-tile FLG must be rejected")
	}
	if _, err := New(g, []graph.LayerID{a, b}, 1); err != nil {
		t.Fatalf("single-tile FLG with barrier rejected: %v", err)
	}
	// The barrier only binds groups containing both endpoints.
	if _, err := New(g, []graph.LayerID{b}, 4); err != nil {
		t.Fatalf("barrier successor alone rejected: %v", err)
	}
}

func TestPlanEmptyFLG(t *testing.T) {
	g, _ := convChain(t)
	if _, err := New(g, nil, 2); err == nil {
		t.Fatal("empty FLG must error")
	}
}

func TestInputRegionPointwiseIdentity(t *testing.T) {
	g, ids := convChain(t)
	// Pool (2x2 s2): output rows [0,8) need input rows [0,16).
	c := g.Layer(ids[2])
	r := InputRegion(c, ids[1], g, Region{0, 1, 0, 8, 0, 8})
	if r.H0 != 0 || r.H1 != 16 || r.W1 != 16 {
		t.Fatalf("pool input region = %v", r)
	}
	// Conv 3x3 s1 p1: output rows [8,16) need input rows [7,17).
	b := g.Layer(ids[1])
	r = InputRegion(b, ids[0], g, Region{0, 1, 8, 16, 0, 32})
	if r.H0 != 7 || r.H1 != 17 {
		t.Fatalf("conv input region = %v", r)
	}
}

func TestPlanBatchSplitNoHalo(t *testing.T) {
	// Splitting along batch produces no halo even under 3x3 convs.
	g := graph.New("b4", 1)
	in := g.Add(graph.Layer{Name: "in", Kind: graph.Input, Out: sh(4, 3, 16, 16)})
	a := g.Add(graph.Layer{Name: "a", Kind: graph.Conv, Deps: []graph.Dep{{Producer: in}},
		Out: sh(4, 8, 16, 16), K: kr(3, 3, 1, 1, 1, 1), Ops: 1000})
	b := g.Add(graph.Layer{Name: "b", Kind: graph.Conv, Deps: []graph.Dep{{Producer: a}},
		Out: sh(4, 8, 16, 16), K: kr(3, 3, 1, 1, 1, 1), Ops: 1000})
	p, err := New(g, []graph.LayerID{a, b}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Split.TN != 4 {
		t.Fatalf("split = %+v", p.Split)
	}
	if f := overlap(p, g, 0); f != 1.0 {
		t.Fatalf("batch split should have no halo, got %g", f)
	}
}

func TestPlanPropertyCoverageAndMonotoneHalo(t *testing.T) {
	g, ids := convChain(t)
	f := func(tRaw uint8) bool {
		tn := int(tRaw%16) + 1
		p, err := New(g, ids, tn)
		if err != nil {
			return false
		}
		if !p.CoverageOK(g) {
			return false
		}
		for i := range ids {
			if overlap(p, g, i) < 1.0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Fatal(err)
	}
}
