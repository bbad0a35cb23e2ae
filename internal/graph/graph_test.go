package graph

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// chain builds input -> conv -> pool -> conv for reuse across tests.
func chain(t *testing.T) (*Graph, []LayerID) {
	t.Helper()
	g := New("chain", 1)
	in := g.Add(Layer{Name: "in", Kind: Input, Out: Shape{1, 3, 32, 32}})
	c1 := g.Add(Layer{Name: "c1", Kind: Conv, Deps: []Dep{{Producer: in}},
		Out: Shape{1, 16, 32, 32}, K: Kernel{3, 3, 1, 1, 1, 1},
		WeightBytes: 3 * 16 * 9, Ops: 2 * 3 * 16 * 9 * 32 * 32})
	p1 := g.Add(Layer{Name: "p1", Kind: Pool, Deps: []Dep{{Producer: c1}},
		Out: Shape{1, 16, 16, 16}, K: Kernel{2, 2, 2, 2, 0, 0}, Ops: 16 * 16 * 16 * 4})
	c2 := g.Add(Layer{Name: "c2", Kind: Conv, Deps: []Dep{{Producer: p1}},
		Out: Shape{1, 32, 16, 16}, K: Kernel{3, 3, 1, 1, 1, 1},
		WeightBytes: 16 * 32 * 9, Ops: 2 * 16 * 32 * 9 * 16 * 16})
	return g, []LayerID{in, c1, p1, c2}
}

func TestShapeAccounting(t *testing.T) {
	s := Shape{2, 64, 14, 14}
	if s.Elems() != 2*64*14*14 {
		t.Fatalf("Elems = %d", s.Elems())
	}
	if s.Bytes(2) != s.Elems()*2 {
		t.Fatalf("Bytes = %d", s.Bytes(2))
	}
	if !s.Valid() {
		t.Fatal("shape should be valid")
	}
	if (Shape{0, 1, 1, 1}).Valid() {
		t.Fatal("zero batch should be invalid")
	}
	if got := s.String(); got != "2x64x14x14" {
		t.Fatalf("String = %q", got)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Conv: "conv", DWConv: "dwconv", GEMM: "gemm", MatMul: "matmul",
		Pool: "pool", GlobalPool: "gpool", Eltwise: "eltwise",
		Activation: "act", Softmax: "softmax", LayerNorm: "layernorm",
		Concat: "concat", Input: "input",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind should include its number")
	}
}

func TestKindOnPEArray(t *testing.T) {
	pe := []Kind{Conv, DWConv, GEMM, MatMul}
	vec := []Kind{Pool, GlobalPool, Eltwise, Activation, Softmax, LayerNorm, Concat, Input}
	for _, k := range pe {
		if !k.OnPEArray() {
			t.Errorf("%v should be on PE array", k)
		}
	}
	for _, k := range vec {
		if k.OnPEArray() {
			t.Errorf("%v should be on vector unit", k)
		}
	}
}

func TestInSpan(t *testing.T) {
	// 3x3 stride-1 pad-1 conv over 32 rows: output rows [0,8) need
	// input rows [0,9) after clamping the padded row.
	i0, i1 := InSpan(0, 8, 3, 1, 1, 32)
	if i0 != 0 || i1 != 9 {
		t.Fatalf("InSpan head = [%d,%d)", i0, i1)
	}
	// Middle tile has halo on both sides.
	i0, i1 = InSpan(8, 16, 3, 1, 1, 32)
	if i0 != 7 || i1 != 17 {
		t.Fatalf("InSpan mid = [%d,%d)", i0, i1)
	}
	// Stride-2 pooling has no halo (2x2 s2).
	i0, i1 = InSpan(4, 8, 2, 2, 0, 16)
	if i0 != 8 || i1 != 16 {
		t.Fatalf("InSpan pool = [%d,%d)", i0, i1)
	}
	// Clamping at the bottom.
	i0, i1 = InSpan(24, 32, 3, 1, 1, 32)
	if i0 != 23 || i1 != 32 {
		t.Fatalf("InSpan tail = [%d,%d)", i0, i1)
	}
}

func TestInSpanCoverageProperty(t *testing.T) {
	// Property: consecutive output intervals' input spans cover the whole
	// input and each span is non-empty for non-degenerate configs.
	f := func(kRaw, sRaw, hRaw uint8) bool {
		k := int(kRaw%5) + 1
		s := int(sRaw%3) + 1
		if s > k {
			s = k
		}
		p := (k - 1) / 2
		outH := int(hRaw%29) + 4
		inH := (outH-1)*s + k - 2*p
		if inH <= 0 {
			return true
		}
		half := outH / 2
		a0, a1 := InSpan(0, half, k, s, p, inH)
		b0, b1 := InSpan(half, outH, k, s, p, inH)
		if a0 != 0 || b1 != inH {
			return false
		}
		return b0 <= a1 // no uncovered gap between tiles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAddAssignsIDsAndConsumers(t *testing.T) {
	g, ids := chain(t)
	if g.Len() != 4 {
		t.Fatalf("Len = %d", g.Len())
	}
	for i, id := range ids {
		if int(id) != i {
			t.Fatalf("ids not dense: %v", ids)
		}
	}
	if got := g.Consumers(ids[1]); len(got) != 1 || got[0] != ids[2] {
		t.Fatalf("Consumers(c1) = %v", got)
	}
	if !g.IsOutput(ids[3]) {
		t.Fatal("c2 should be a graph output")
	}
	if g.IsOutput(ids[1]) {
		t.Fatal("c1 is consumed, not an output")
	}
}

func TestInputsAndComputeLayers(t *testing.T) {
	g, ids := chain(t)
	cl := g.ComputeLayers()
	if len(cl) != 3 || cl[0] != ids[1] {
		t.Fatalf("ComputeLayers = %v", cl)
	}
	for _, id := range cl {
		if g.Layer(id).Kind == Input {
			t.Fatal("compute layers must exclude inputs")
		}
	}
}

func TestTotals(t *testing.T) {
	g, _ := chain(t)
	wantW := int64(3*16*9 + 16*32*9)
	if g.TotalWeightBytes() != wantW {
		t.Fatalf("TotalWeightBytes = %d want %d", g.TotalWeightBytes(), wantW)
	}
	if g.TotalOps() <= 0 {
		t.Fatal("TotalOps must be positive")
	}
}

func TestValidate(t *testing.T) {
	g, _ := chain(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	empty := New("empty", 1)
	if err := empty.Validate(); err == nil {
		t.Fatal("empty graph accepted")
	}
	bad := New("bad", 1)
	bad.Add(Layer{Name: "in", Kind: Input, Out: Shape{1, 1, 1, 1}})
	bad.Add(Layer{Name: "orphan", Kind: Conv, Out: Shape{1, 1, 1, 1}})
	if err := bad.Validate(); err == nil {
		t.Fatal("conv without inputs accepted")
	}
}

func TestValidateBatchMismatch(t *testing.T) {
	g := New("bm", 1)
	in := g.Add(Layer{Name: "in", Kind: Input, Out: Shape{2, 3, 8, 8}})
	g.Add(Layer{Name: "c", Kind: Conv, Deps: []Dep{{Producer: in}},
		Out: Shape{1, 4, 8, 8}, K: Kernel{1, 1, 1, 1, 0, 0}, Ops: 1})
	if err := g.Validate(); err == nil {
		t.Fatal("batch-changing local edge accepted")
	}
}

func TestAddPanicsOnBadDep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on forward dependency")
		}
	}()
	g := New("p", 1)
	g.Add(Layer{Name: "x", Kind: Conv, Deps: []Dep{{Producer: 5}}, Out: Shape{1, 1, 1, 1}})
}

func TestAddPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid shape")
		}
	}()
	g := New("p", 1)
	g.Add(Layer{Name: "x", Kind: Input, Out: Shape{0, 0, 0, 0}})
}

func TestIsValidOrder(t *testing.T) {
	g, ids := chain(t)
	good := []LayerID{ids[1], ids[2], ids[3]}
	if !g.IsValidOrder(good) {
		t.Fatal("topological order rejected")
	}
	bad := []LayerID{ids[2], ids[1], ids[3]}
	if g.IsValidOrder(bad) {
		t.Fatal("dependency-violating order accepted")
	}
	if g.IsValidOrder([]LayerID{ids[1], ids[2]}) {
		t.Fatal("incomplete order accepted")
	}
	if g.IsValidOrder([]LayerID{ids[1], ids[1], ids[3]}) {
		t.Fatal("duplicated order accepted")
	}
	if g.IsValidOrder([]LayerID{ids[0], ids[1], ids[2]}) {
		t.Fatal("order containing Input accepted")
	}
	// A reused position table gives the same answers whatever it holds.
	pos := make([]int, len(g.Layers))
	for _, ord := range [][]LayerID{good, bad, good, {ids[1], ids[1], ids[3]}, good} {
		if got, want := g.IsValidOrderIn(ord, pos), g.IsValidOrder(ord); got != want {
			t.Fatalf("IsValidOrderIn(%v) = %v after reuse, want %v", ord, got, want)
		}
	}
}

func TestIsValidOrderIndependentSwap(t *testing.T) {
	// Diamond: two independent branches may appear in either order.
	g := New("diamond", 1)
	in := g.Add(Layer{Name: "in", Kind: Input, Out: Shape{1, 8, 8, 8}})
	a := g.Add(Layer{Name: "a", Kind: Conv, Deps: []Dep{{Producer: in}}, Out: Shape{1, 8, 8, 8}, Ops: 1})
	b := g.Add(Layer{Name: "b", Kind: Conv, Deps: []Dep{{Producer: in}}, Out: Shape{1, 8, 8, 8}, Ops: 1})
	c := g.Add(Layer{Name: "c", Kind: Eltwise, Deps: []Dep{{Producer: a}, {Producer: b}}, Out: Shape{1, 8, 8, 8}, Ops: 1})
	if !g.IsValidOrder([]LayerID{a, b, c}) || !g.IsValidOrder([]LayerID{b, a, c}) {
		t.Fatal("independent branches should commute")
	}
	if g.IsValidOrder([]LayerID{c, a, b}) {
		t.Fatal("consumer before producers accepted")
	}
}

func TestTopoOrderIsValid(t *testing.T) {
	g, _ := chain(t)
	if !g.IsValidOrder(g.ComputeLayers()) {
		t.Fatal("ComputeLayers must be a valid topological order")
	}
}

func TestSummaryAndDump(t *testing.T) {
	g, _ := chain(t)
	if s := g.Summary(); !strings.Contains(s, "chain") {
		t.Fatalf("Summary = %q", s)
	}
	if st := g.Stats(); len(st) != 3 || st["input"] != 1 || st["pool"] != 1 || st["conv"] != 2 {
		t.Fatalf("Stats = %v", g.Stats())
	}
}

func TestRandomValidOrdersProperty(t *testing.T) {
	// Property: any order produced by repeatedly moving a random layer to
	// another random *legal* location stays valid.
	g := New("rand", 1)
	in := g.Add(Layer{Name: "in", Kind: Input, Out: Shape{1, 4, 16, 16}})
	prev := in
	var ids []LayerID
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 12; i++ {
		deps := []Dep{{Producer: prev}}
		if i > 2 && rng.Intn(2) == 0 { // extra skip edge
			deps = append(deps, Dep{Producer: ids[rng.Intn(len(ids))]})
		}
		id := g.Add(Layer{Kind: Conv, Deps: deps, Out: Shape{1, 4, 16, 16}, Ops: 10})
		ids = append(ids, id)
		prev = id
	}
	ord := append([]LayerID(nil), ids...)
	for trial := 0; trial < 200; trial++ {
		i := rng.Intn(len(ord))
		j := rng.Intn(len(ord))
		cand := append([]LayerID(nil), ord...)
		v := cand[i]
		cand = append(cand[:i], cand[i+1:]...)
		rest := append([]LayerID(nil), cand[j:]...)
		cand = append(append(cand[:j:j], v), rest...)
		if g.IsValidOrder(cand) {
			ord = cand
		}
	}
	if !g.IsValidOrder(ord) {
		t.Fatal("accumulated order became invalid")
	}
}

func TestGlobalDepDump(t *testing.T) {
	g := New("glob", 1)
	in := g.Add(Layer{Name: "in", Kind: Input, Out: Shape{1, 8, 4, 1}})
	q := g.Add(Layer{Name: "q", Kind: GEMM, Deps: []Dep{{Producer: in}}, Out: Shape{1, 8, 4, 1}, WeightBytes: 64, Ops: 100})
	k := g.Add(Layer{Name: "k", Kind: GEMM, Deps: []Dep{{Producer: in}}, Out: Shape{1, 8, 4, 1}, WeightBytes: 64, Ops: 100})
	qk := g.Add(Layer{Name: "qk", Kind: MatMul,
		Deps: []Dep{{Producer: q}, {Producer: k, Global: true}},
		Out:  Shape{1, 4, 4, 1}, Ops: 100})
	if d := g.Layer(qk).Deps; d[0].Global || !d[1].Global {
		t.Fatalf("qk deps = %+v, want only the k edge global", d)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}
