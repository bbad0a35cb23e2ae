package core

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"soma/internal/graph"
)

func sh(n, c, h, w int) graph.Shape { return graph.Shape{N: n, C: c, H: h, W: w} }

func kr(kh, kw, s, sw, ph, pw int) graph.Kernel {
	return graph.Kernel{KH: kh, KW: kw, SH: s, SW: sw, PH: ph, PW: pw}
}

// fig4 reproduces the paper's Fig. 4 five-layer network: A -> B -> C(pool),
// C -> E, C -> D, with E and D as network outputs. A and B are convs with
// weights, C is a pooling layer without weights.
func fig4(t testing.TB) (*graph.Graph, map[string]graph.LayerID) {
	g := graph.New("fig4", 1)
	ids := map[string]graph.LayerID{}
	in := g.Add(graph.Layer{Name: "in", Kind: graph.Input, Out: sh(1, 8, 32, 32)})
	ids["in"] = in
	a := g.Add(graph.Layer{Name: "A", Kind: graph.Conv, Deps: []graph.Dep{{Producer: in}},
		Out: sh(1, 16, 32, 32), K: kr(3, 3, 1, 1, 1, 1), WeightBytes: 8 * 16 * 9, Ops: 2 * 8 * 16 * 9 * 32 * 32})
	ids["A"] = a
	b := g.Add(graph.Layer{Name: "B", Kind: graph.Conv, Deps: []graph.Dep{{Producer: a}},
		Out: sh(1, 16, 32, 32), K: kr(3, 3, 1, 1, 1, 1), WeightBytes: 16 * 16 * 9, Ops: 2 * 16 * 16 * 9 * 32 * 32})
	ids["B"] = b
	c := g.Add(graph.Layer{Name: "C", Kind: graph.Pool, Deps: []graph.Dep{{Producer: b}},
		Out: sh(1, 16, 16, 16), K: kr(2, 2, 2, 2, 0, 0), Ops: 16 * 16 * 16 * 4})
	ids["C"] = c
	e := g.Add(graph.Layer{Name: "E", Kind: graph.Conv, Deps: []graph.Dep{{Producer: c}},
		Out: sh(1, 16, 16, 16), K: kr(3, 3, 1, 1, 1, 1), WeightBytes: 16 * 16 * 9, Ops: 2 * 16 * 16 * 9 * 16 * 16})
	ids["E"] = e
	d := g.Add(graph.Layer{Name: "D", Kind: graph.Conv, Deps: []graph.Dep{{Producer: c}},
		Out: sh(1, 16, 16, 16), K: kr(3, 3, 1, 1, 1, 1), WeightBytes: 16 * 16 * 9, Ops: 2 * 16 * 16 * 9 * 16 * 16})
	ids["D"] = d
	if err := g.Validate(); err != nil {
		t.Fatalf("fig4 graph: %v", err)
	}
	return g, ids
}

// fig4Encoding is the paper's example: order [A B C E D], FLC set {1,2},
// DRAM cut set {2}, tiling numbers 2, 1, 2.
func fig4Encoding(ids map[string]graph.LayerID) *Encoding {
	return &Encoding{
		Order:  []graph.LayerID{ids["A"], ids["B"], ids["C"], ids["E"], ids["D"]},
		FLCs:   []int{1, 2},
		IsDRAM: []bool{false, true},
		Tile:   []int{2, 1, 2},
	}
}

func mustParse(t testing.TB, g *graph.Graph, e *Encoding) *Schedule {
	s, err := Parse(g, e)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

func TestEncodingGroupAccessors(t *testing.T) {
	g, ids := fig4(t)
	e := fig4Encoding(ids)
	if err := e.Check(g); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if e.NumFLGs() != 3 || e.NumLGs() != 2 {
		t.Fatalf("FLGs=%d LGs=%d", e.NumFLGs(), e.NumLGs())
	}
	if lo, hi := e.FLGBounds(0); lo != 0 || hi != 1 {
		t.Fatalf("FLG0 = [%d,%d)", lo, hi)
	}
	if lo, hi := e.FLGBounds(2); lo != 2 || hi != 5 {
		t.Fatalf("FLG2 = [%d,%d)", lo, hi)
	}
	if e.FLGOfPos(0) != 0 || e.FLGOfPos(1) != 1 || e.FLGOfPos(4) != 2 {
		t.Fatalf("FLGOfPos: %d %d %d", e.FLGOfPos(0), e.FLGOfPos(1), e.FLGOfPos(4))
	}
	if !strings.Contains(e.String(), "||") || !strings.Contains(e.String(), "|") {
		t.Fatalf("String = %q", e.String())
	}
}

func TestEncodingCheckRejections(t *testing.T) {
	g, ids := fig4(t)
	base := fig4Encoding(ids)

	e := base.Clone()
	e.Order[0], e.Order[1] = e.Order[1], e.Order[0] // B before A
	if e.Check(g) == nil {
		t.Fatal("dependency-violating order accepted")
	}
	e = base.Clone()
	e.FLCs = []int{2, 1}
	if e.Check(g) == nil {
		t.Fatal("unsorted cuts accepted")
	}
	e = base.Clone()
	e.FLCs = []int{1, 5}
	if e.Check(g) == nil {
		t.Fatal("cut at order length accepted")
	}
	e = base.Clone()
	e.Tile[1] = 0
	if e.Check(g) == nil {
		t.Fatal("zero tiling accepted")
	}
	e = base.Clone()
	e.Tile = e.Tile[:2]
	if e.Check(g) == nil {
		t.Fatal("tile/FLG length mismatch accepted")
	}
	e = base.Clone()
	e.IsDRAM = e.IsDRAM[:1]
	if e.Check(g) == nil {
		t.Fatal("IsDRAM length mismatch accepted")
	}
}

func TestDefaultEncoding(t *testing.T) {
	g, _ := fig4(t)
	e := DefaultEncoding(g, 1)
	if err := e.Check(g); err != nil {
		t.Fatalf("Check: %v", err)
	}
	n := len(g.ComputeLayers())
	if e.NumFLGs() != n || e.NumLGs() != n {
		t.Fatalf("default encoding must isolate every layer: FLGs=%d LGs=%d n=%d",
			e.NumFLGs(), e.NumLGs(), n)
	}
	if DefaultEncoding(g, 0).Tile[0] != 1 {
		t.Fatal("minTile clamp failed")
	}
}

func TestParseFig4TileSequence(t *testing.T) {
	g, ids := fig4(t)
	s := mustParse(t, g, fig4Encoding(ids))
	// A1 A2 B C1 E1 D1 C2 E2 D2 - exactly the paper's sequence.
	want := []graph.LayerID{ids["A"], ids["A"], ids["B"],
		ids["C"], ids["E"], ids["D"], ids["C"], ids["E"], ids["D"]}
	if s.NumTiles() != len(want) {
		t.Fatalf("tiles = %d, want %d", s.NumTiles(), len(want))
	}
	for i, tl := range s.Tiles {
		if tl.Layer != want[i] {
			t.Fatalf("tile %d = %s, want %s", i, g.Layer(tl.Layer).Name, g.Layer(want[i]).Name)
		}
		if tl.Seq != i {
			t.Fatalf("tile %d has Seq %d", i, tl.Seq)
		}
	}
	// Group indices: A,B in LG0; C,E,D in LG1. A in FLG0, B in FLG1.
	if s.Tiles[0].LG != 0 || s.Tiles[2].LG != 0 || s.Tiles[3].LG != 1 {
		t.Fatalf("LG assignment wrong: %+v", s.Tiles)
	}
	if s.Tiles[0].FLG != 0 || s.Tiles[2].FLG != 1 || s.Tiles[3].FLG != 2 {
		t.Fatalf("FLG assignment wrong")
	}
}

func TestParseFig4TensorInventory(t *testing.T) {
	g, ids := fig4(t)
	s := mustParse(t, g, fig4Encoding(ids))
	// The paper's example yields exactly 13 DRAM tensors:
	// IA1 IA2 WA WB WE WD OB IC1 IC2 OE1 OE2 OD1 OD2.
	if len(s.Tensors) != 13 {
		t.Fatalf("tensors = %d, want 13", len(s.Tensors))
	}
	count := map[TensorKind]int{}
	perLayer := map[string]int{}
	for _, ts := range s.Tensors {
		count[ts.Kind]++
		perLayer[g.Layer(ts.Layer).Name+ts.Kind.String()]++
	}
	if count[LoadWeight] != 4 { // WA WB WE WD (C has none)
		t.Fatalf("weight loads = %d, want 4", count[LoadWeight])
	}
	if count[LoadIfmap] != 4 { // IA1 IA2 IC1 IC2
		t.Fatalf("ifmap loads = %d, want 4", count[LoadIfmap])
	}
	if count[StoreOfmap] != 5 { // OB OE1 OE2 OD1 OD2
		t.Fatalf("stores = %d, want 5", count[StoreOfmap])
	}
	if perLayer["CI"] != 2 {
		t.Fatalf("C must load 2 ifmap tiles, got %d", perLayer["CI"])
	}
	if perLayer["BO"] != 1 {
		t.Fatalf("B must store 1 ofmap tile, got %d", perLayer["BO"])
	}
}

func TestParseFig4CrossLGDependency(t *testing.T) {
	g, ids := fig4(t)
	s := mustParse(t, g, fig4Encoding(ids))
	// Every IC load must depend on B's store.
	var bStore int = -1
	for _, ts := range s.Tensors {
		if ts.Kind == StoreOfmap && ts.Layer == ids["B"] {
			bStore = ts.ID
		}
	}
	if bStore < 0 {
		t.Fatal("no store for B")
	}
	for _, ts := range s.Tensors {
		if ts.Kind == LoadIfmap && ts.Layer == ids["C"] {
			if !s.WaitsOn(&ts).Has(bStore) {
				t.Fatalf("IC load %d does not wait on OB", ts.ID)
			}
		}
	}
}

func TestParseFig4WeightLifetimes(t *testing.T) {
	g, ids := fig4(t)
	s := mustParse(t, g, fig4Encoding(ids))
	for _, ts := range s.Tensors {
		if ts.Kind != LoadWeight {
			continue
		}
		switch ts.Layer {
		case ids["A"]:
			// WA: first use A1 (seq 0), released after FLG [A] ends (seq 2 = B).
			if ts.FirstUse != 0 || ts.Release != 2 {
				t.Fatalf("WA lifetime = (%d,%d), want (0,2)", ts.FirstUse, ts.Release)
			}
		case ids["E"]:
			// WE: first use E1 (seq 4), released after FLG [C,E,D] ends (seq 9).
			if ts.FirstUse != 4 || ts.Release != 9 {
				t.Fatalf("WE lifetime = (%d,%d), want (4,9)", ts.FirstUse, ts.Release)
			}
		}
	}
}

func TestDoubleBufferDefaultsAndValidity(t *testing.T) {
	g, ids := fig4(t)
	s := mustParse(t, g, fig4Encoding(ids))
	if !s.OrderValid() {
		t.Fatal("double-buffer order invalid")
	}
	if !s.LivingValid() {
		t.Fatal("double-buffer livings invalid")
	}
	for _, ts := range s.Tensors {
		if ts.Kind.IsLoad() {
			want := ts.FirstUse - 1
			if want < 0 {
				want = 0
			}
			if ts.Start != want {
				t.Fatalf("tensor %d Start = %d, want %d", ts.ID, ts.Start, want)
			}
		} else {
			want := ts.Producer + 2
			if n := s.NumTiles(); want > n {
				want = n
			}
			if ts.End != want {
				t.Fatalf("tensor %d End = %d, want %d", ts.ID, ts.End, want)
			}
		}
	}
}

func TestBufferUsageShapes(t *testing.T) {
	g, ids := fig4(t)
	s := mustParse(t, g, fig4Encoding(ids))
	u := s.BufferUsage()
	if len(u) != s.NumTiles() {
		t.Fatalf("usage length = %d", len(u))
	}
	for i, b := range u {
		if b < 0 {
			t.Fatalf("negative usage %d at seq %d", b, i)
		}
	}
	if s.PeakBuffer() <= 0 {
		t.Fatal("peak buffer must be positive")
	}
	// Peak must at least hold B's weights + A's aggregated ofmap.
	if s.PeakBuffer() < g.Layer(ids["B"]).WeightBytes {
		t.Fatal("peak buffer implausibly small")
	}
}

func TestFusionReducesDRAMTraffic(t *testing.T) {
	g, ids := fig4(t)
	fused := mustParse(t, g, fig4Encoding(ids))
	unfused := mustParse(t, g, DefaultEncoding(g, 2))
	if fused.TotalDRAMBytes() >= unfused.TotalDRAMBytes() {
		t.Fatalf("fusion must cut DRAM bytes: fused=%d unfused=%d",
			fused.TotalDRAMBytes(), unfused.TotalDRAMBytes())
	}
}

func TestParseRejectsGlobalDepInMultiTileFLG(t *testing.T) {
	g := graph.New("attn", 1)
	in := g.Add(graph.Layer{Name: "in", Kind: graph.Input, Out: sh(1, 8, 16, 1)})
	q := g.Add(graph.Layer{Name: "q", Kind: graph.GEMM, Deps: []graph.Dep{{Producer: in}},
		Out: sh(1, 8, 16, 1), WeightBytes: 64, Ops: 4096})
	k := g.Add(graph.Layer{Name: "k", Kind: graph.GEMM, Deps: []graph.Dep{{Producer: in}},
		Out: sh(1, 8, 16, 1), WeightBytes: 64, Ops: 4096})
	qk := g.Add(graph.Layer{Name: "qk", Kind: graph.MatMul,
		Deps: []graph.Dep{{Producer: q}, {Producer: k, Global: true}},
		Out:  sh(1, 16, 16, 1), Ops: 4096})
	e := &Encoding{Order: []graph.LayerID{q, k, qk}, Tile: []int{4}}
	if _, err := Parse(g, e); err == nil {
		t.Fatal("multi-tile FLG with global dep accepted")
	}
	// Separating the consumer into its own FLG makes it legal.
	e2 := &Encoding{Order: []graph.LayerID{q, k, qk}, FLCs: []int{2},
		IsDRAM: []bool{false}, Tile: []int{4, 1}}
	if _, err := Parse(g, e2); err != nil {
		t.Fatalf("cross-FLG global dep rejected: %v", err)
	}
}

func TestGlobalDepAcrossLGBecomesSingleLoad(t *testing.T) {
	g := graph.New("attn", 1)
	in := g.Add(graph.Layer{Name: "in", Kind: graph.Input, Out: sh(1, 8, 16, 1)})
	q := g.Add(graph.Layer{Name: "q", Kind: graph.GEMM, Deps: []graph.Dep{{Producer: in}},
		Out: sh(1, 8, 16, 1), WeightBytes: 64, Ops: 4096})
	k := g.Add(graph.Layer{Name: "k", Kind: graph.GEMM, Deps: []graph.Dep{{Producer: in}},
		Out: sh(1, 8, 16, 1), WeightBytes: 64, Ops: 4096})
	qk := g.Add(graph.Layer{Name: "qk", Kind: graph.MatMul,
		Deps: []graph.Dep{{Producer: q}, {Producer: k, Global: true}},
		Out:  sh(1, 16, 16, 1), Ops: 4096})
	countLoads := func(s *Schedule) (kLoads, qLoads int, kBytes int64) {
		for _, ts := range s.Tensors {
			if ts.Kind == LoadIfmap && ts.Layer == qk {
				if ts.Source == k {
					kLoads++
					kBytes = ts.Bytes
				}
				if ts.Source == q {
					qLoads++
				}
			}
		}
		return
	}
	// Tiled consumer: the global K operand streams fully per tile, the
	// local Q operand loads per-tile slabs.
	e := &Encoding{Order: []graph.LayerID{q, k, qk}, FLCs: []int{2},
		IsDRAM: []bool{true}, Tile: []int{1, 4}}
	s := mustParse(t, g, e)
	kLoads, qLoads, kBytes := countLoads(s)
	if kLoads != 4 {
		t.Fatalf("tiled consumer: global operand loads = %d, want 4 (one per tile)", kLoads)
	}
	if kBytes != g.Layer(k).Out.Bytes(1) {
		t.Fatalf("each global load must carry the full operand: %d", kBytes)
	}
	if qLoads != 4 {
		t.Fatalf("local operand loads = %d, want 4", qLoads)
	}
	// Single-tile consumer: one resident load.
	e1 := &Encoding{Order: []graph.LayerID{q, k, qk}, FLCs: []int{2},
		IsDRAM: []bool{true}, Tile: []int{1, 1}}
	s1 := mustParse(t, g, e1)
	kLoads, qLoads, _ = countLoads(s1)
	if kLoads != 1 || qLoads != 1 {
		t.Fatalf("single-tile consumer: loads = %d/%d, want 1/1", kLoads, qLoads)
	}
}

func TestTileRequestSanity(t *testing.T) {
	g, ids := fig4(t)
	s := mustParse(t, g, fig4Encoding(ids))
	var totalOps int64
	for i := range s.Tiles {
		r := s.TileRequest(i)
		if r.Ops <= 0 || r.OutBytes <= 0 || r.InBytes <= 0 {
			t.Fatalf("tile %d request: %+v", i, r)
		}
		totalOps += r.Ops
	}
	// Halo recompute means executed ops >= graph ops.
	if totalOps < g.TotalOps() {
		t.Fatalf("executed ops %d < graph ops %d", totalOps, g.TotalOps())
	}
	if float64(totalOps) > 1.5*float64(g.TotalOps()) {
		t.Fatalf("halo overhead implausible: %d vs %d", totalOps, g.TotalOps())
	}
	_ = ids
}

func TestSummarize(t *testing.T) {
	g, ids := fig4(t)
	s := mustParse(t, g, fig4Encoding(ids))
	st := s.Summarize()
	if st.Tiles != 9 || st.Tensors != 13 || st.FLGs != 3 || st.LGs != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.DRAMBytes != s.TotalDRAMBytes() {
		t.Fatal("stats bytes mismatch")
	}
}

func TestMoveTensorLegality(t *testing.T) {
	g, ids := fig4(t)
	s := mustParse(t, g, fig4Encoding(ids))
	// Find OB's and IC1's order positions.
	pos := map[int]int{}
	for i, id := range s.Order {
		pos[id] = i
	}
	var ob, ic = -1, -1
	for _, ts := range s.Tensors {
		if ts.Kind == StoreOfmap && ts.Layer == ids["B"] {
			ob = ts.ID
		}
		if ts.Kind == LoadIfmap && ts.Layer == ids["C"] && ic == -1 {
			ic = ts.ID
		}
	}
	if pos[ob] > pos[ic] {
		t.Fatal("double buffer must place OB before IC")
	}
	// Moving IC before OB must be rejected.
	if s.MoveTensor(pos[ic], pos[ob]) {
		t.Fatal("load moved before its producer store")
	}
	if !s.OrderValid() {
		t.Fatal("rejected move corrupted the order")
	}
	// Moving OB after IC must be rejected too.
	if s.MoveTensor(pos[ob], pos[ic]) {
		t.Fatal("store moved after its dependent load")
	}
	// Every accepted move keeps the order valid, every refused one leaves
	// it untouched, and the schedule has at least one legal move.
	legal := 0
	for from := range s.Order {
		for to := range s.Order {
			c := s.Clone()
			before := slices.Clone(c.Order)
			if !c.MoveTensor(from, to) {
				if !slices.Equal(c.Order, before) {
					t.Fatalf("refused move %d->%d changed the order", from, to)
				}
				continue
			}
			legal++
			if !c.OrderValid() {
				t.Fatalf("legal move %d->%d produced invalid order", from, to)
			}
		}
	}
	if legal == 0 {
		t.Fatal("no legal move in this schedule")
	}
}

func TestSetLivingClamping(t *testing.T) {
	g, ids := fig4(t)
	s := mustParse(t, g, fig4Encoding(ids))
	load, store := -1, -1
	for _, ts := range s.Tensors {
		if ts.Kind.IsLoad() && ts.FirstUse > 0 && load == -1 {
			load = ts.ID
		}
		if ts.Kind == StoreOfmap && store == -1 {
			store = ts.ID
		}
	}
	if load < 0 || store < 0 {
		t.Fatalf("fig4 parse lacks a late load or a store: load %d store %d", load, store)
	}
	ld, st := &s.Tensors[load], &s.Tensors[store]
	if !s.SetLiving(load, -5) || ld.Start != 0 {
		t.Fatalf("load clamp low: Start %d", ld.Start)
	}
	if !s.SetLiving(load, 999) || ld.Start != ld.FirstUse {
		t.Fatalf("load clamp high: Start %d, FirstUse %d", ld.Start, ld.FirstUse)
	}
	if s.SetLiving(load, ld.FirstUse+1) {
		t.Fatal("a load clamped onto its current Start must report no change")
	}
	if !s.SetLiving(store, -1) || st.End != st.Producer+1 {
		t.Fatalf("store clamp low: End %d, Producer %d", st.End, st.Producer)
	}
	if s.SetLiving(store, st.Producer) {
		t.Fatal("a store clamped onto its current End must report no change")
	}
	if !s.SetLiving(store, 999) || st.End != s.NumTiles() {
		t.Fatalf("store clamp high: End %d", st.End)
	}
	if s.SetLiving(store, s.NumTiles()) {
		t.Fatal("an unchanged End must report no change")
	}
	if s.SetLiving(-1, 0) || s.SetLiving(len(s.Tensors), 0) {
		t.Fatal("out-of-range ids must be refused")
	}
	if !s.LivingValid() {
		t.Fatal("clamped livings must stay valid")
	}
}

func TestCloneIsolation(t *testing.T) {
	g, ids := fig4(t)
	s := mustParse(t, g, fig4Encoding(ids))
	order := append([]int(nil), s.Order...)
	tensors := append([]Tensor(nil), s.Tensors...)
	c := s.Clone()
	c.SetLiving(c.Order[0], 0)
	c.MoveTensor(0, 2)
	if !reflect.DeepEqual(s.Order, order) || !reflect.DeepEqual(s.Tensors, tensors) {
		t.Fatal("clone mutation leaked")
	}
	if reflect.DeepEqual(c.Order, order) && reflect.DeepEqual(c.Tensors, tensors) {
		t.Fatal("clone did not diverge")
	}
}

func TestEncodingOperators(t *testing.T) {
	g, ids := fig4(t)
	e := fig4Encoding(ids)
	// AddFLC splits FLG [C,E,D] at position 3; halves inherit tiling 2.
	if !e.AddFLC(3) {
		t.Fatal("AddFLC failed")
	}
	if e.NumFLGs() != 4 || e.Tile[2] != 2 || e.Tile[3] != 2 {
		t.Fatalf("after AddFLC: FLGs=%d Tile=%v", e.NumFLGs(), e.Tile)
	}
	if e.AddFLC(3) {
		t.Fatal("duplicate cut accepted")
	}
	if e.AddFLC(0) || e.AddFLC(5) {
		t.Fatal("boundary cut accepted")
	}
	if err := e.Check(g); err != nil {
		t.Fatalf("Check after AddFLC: %v", err)
	}
	// RemoveFLC merges back with the chosen tiling.
	if !e.RemoveFLC(2, 4) {
		t.Fatal("RemoveFLC failed")
	}
	if e.NumFLGs() != 3 || e.Tile[2] != 4 {
		t.Fatalf("after RemoveFLC: FLGs=%d Tile=%v", e.NumFLGs(), e.Tile)
	}
	if e.RemoveFLC(7, 1) {
		t.Fatal("out-of-range removal accepted")
	}
	e.IsDRAM[0] = true
	if err := e.Check(g); err != nil {
		t.Fatalf("Check after operators: %v", err)
	}
}

func TestMoveLayer(t *testing.T) {
	g, ids := fig4(t)
	e := fig4Encoding(ids)
	// E and D are independent: swapping them is legal.
	if !e.MoveLayer(g, 4, 3) {
		t.Fatal("legal swap rejected")
	}
	if e.Order[3] != ids["D"] || e.Order[4] != ids["E"] {
		t.Fatalf("order after move: %v", e.Order)
	}
	// Moving A after B violates the dependency.
	if e.MoveLayer(g, 0, 1) {
		t.Fatal("illegal move accepted")
	}
	if e.MoveLayer(g, 0, 0) || e.MoveLayer(g, -1, 2) || e.MoveLayer(g, 0, 9) {
		t.Fatal("degenerate moves accepted")
	}
}

func TestRandomDLSAMutationsKeepInvariants(t *testing.T) {
	g, ids := fig4(t)
	s := mustParse(t, g, fig4Encoding(ids))
	rng := rand.New(rand.NewSource(42))
	moves := 0
	for i := 0; i < 500; i++ {
		if k := rng.Intn(3); k == 0 {
			if s.MoveTensor(rng.Intn(len(s.Order)), rng.Intn(len(s.Order))) {
				moves++
			}
		} else {
			// A jitter may deadlock the schedule; it is undone, as stage 2
			// rejects the proposal. An order move never may.
			id := rng.Intn(len(s.Tensors))
			old := s.Tensors[id].Living()
			if s.SetLiving(id, rng.Intn(s.NumTiles()+k)-1) && !s.OrderValid() {
				s.SetLiving(id, old)
			}
		}
		if !s.OrderValid() {
			t.Fatalf("iteration %d: order invalid", i)
		}
		if !s.LivingValid() {
			t.Fatalf("iteration %d: livings invalid", i)
		}
	}
	if moves == 0 {
		t.Fatal("no order move was legal")
	}
	for _, u := range s.BufferUsage() {
		if u < 0 {
			t.Fatal("negative buffer usage after mutations")
		}
	}
}

func TestBufferUsagePropertyMorePrefetchMoreBuffer(t *testing.T) {
	g, ids := fig4(t)
	f := func(seedRaw uint8) bool {
		s := mustParse(t, g, fig4Encoding(ids))
		base := s.PeakBuffer()
		// Prefetch everything at time zero: peak can only grow.
		for i := range s.Tensors {
			if s.Tensors[i].Kind.IsLoad() {
				s.SetLiving(s.Tensors[i].ID, 0)
			}
		}
		_ = seedRaw
		return s.PeakBuffer() >= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
