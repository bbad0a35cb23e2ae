package graph

import (
	"reflect"
	"strings"
	"testing"
)

// twoChains builds two independent conv chains (a0->a1, b0->b1) with a
// barrier a1 => b0, the shape scenario composition produces for sequential
// arrival.
func twoChains(t *testing.T) (*Graph, []LayerID) {
	t.Helper()
	g := New("barrier", 1)
	inA := g.Add(Layer{Name: "a/in", Kind: Input, Out: Shape{1, 3, 8, 8}})
	a0 := g.Add(Layer{Name: "a/c0", Kind: Conv, Deps: []Dep{{Producer: inA}},
		Out: Shape{1, 8, 8, 8}, Ops: 100, WeightBytes: 10})
	a1 := g.Add(Layer{Name: "a/c1", Kind: Conv, Deps: []Dep{{Producer: a0}},
		Out: Shape{1, 8, 8, 8}, Ops: 100, WeightBytes: 10})
	inB := g.Add(Layer{Name: "b/in", Kind: Input, Out: Shape{1, 3, 8, 8}})
	b0 := g.Add(Layer{Name: "b/c0", Kind: Conv, Deps: []Dep{{Producer: inB}},
		After: []LayerID{a1}, Out: Shape{1, 8, 8, 8}, Ops: 100, WeightBytes: 10})
	b1 := g.Add(Layer{Name: "b/c1", Kind: Conv, Deps: []Dep{{Producer: b0}},
		Out: Shape{1, 8, 8, 8}, Ops: 100, WeightBytes: 10})
	return g, []LayerID{inA, a0, a1, inB, b0, b1}
}

func TestBarrierValidatesAndOrders(t *testing.T) {
	g, ids := twoChains(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	a0, a1, b0, b1 := ids[1], ids[2], ids[4], ids[5]
	if !g.IsValidOrder([]LayerID{a0, a1, b0, b1}) {
		t.Fatal("barrier-respecting order rejected")
	}
	// Any order placing a b-layer before the barrier target is illegal.
	for _, bad := range [][]LayerID{
		{b0, a0, a1, b1},
		{a0, b0, a1, b1},
		{b0, b1, a0, a1},
	} {
		if g.IsValidOrder(bad) {
			t.Fatalf("order %v crosses the barrier but was accepted", bad)
		}
	}
	// Without the barrier the same interleaving is legal.
	g2 := New("free", 1)
	for _, l := range g.Layers {
		l2 := l
		l2.After = nil
		l2.Deps = append([]Dep(nil), l.Deps...)
		g2.Add(l2)
	}
	if !g2.IsValidOrder([]LayerID{b0, a0, b1, a1}) {
		t.Fatal("interleaving without barriers must be legal")
	}
}

// TestBarrierCarriesNoData: barriers must not create consumer edges - the
// predecessor keeps its network-output status and byte accounting.
func TestBarrierCarriesNoData(t *testing.T) {
	g, ids := twoChains(t)
	a1 := ids[2]
	if !g.IsOutput(a1) {
		t.Fatal("barrier predecessor lost its output status")
	}
	if len(g.Consumers(a1)) != 0 {
		t.Fatalf("barrier created consumers: %v", g.Consumers(a1))
	}
}

func TestBarrierValidateErrors(t *testing.T) {
	g := New("bad", 1)
	in := g.Add(Layer{Name: "in", Kind: Input, Out: Shape{1, 1, 1, 1}})
	c := g.Add(Layer{Name: "c", Kind: Conv, Deps: []Dep{{Producer: in}},
		Out: Shape{1, 1, 1, 1}, Ops: 1})
	// Barrier on an Input pseudo-layer is meaningless.
	g.Layers[c].After = []LayerID{in}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "input") {
		t.Fatalf("barrier on input accepted: %v", err)
	}
	// Barrier pointing forward breaks the construction invariant.
	g.Layers[c].After = []LayerID{c}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "later") {
		t.Fatalf("forward barrier accepted: %v", err)
	}
}

func TestBarrierAddPanicsOnUnknownTarget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add accepted a barrier on an unknown layer")
		}
	}()
	g := New("panic", 1)
	in := g.Add(Layer{Name: "in", Kind: Input, Out: Shape{1, 1, 1, 1}})
	g.Add(Layer{Name: "c", Kind: Conv, Deps: []Dep{{Producer: in}},
		After: []LayerID{99}, Out: Shape{1, 1, 1, 1}, Ops: 1})
}

func TestBarrierInDumpAndCriticalPath(t *testing.T) {
	g, ids := twoChains(t)
	// The barrier a1 => b0 is recorded on its successor b0 only.
	for i := range g.Layers {
		want := []LayerID(nil)
		if LayerID(i) == ids[4] {
			want = []LayerID{ids[2]}
		}
		if !reflect.DeepEqual(g.Layers[i].After, want) {
			t.Fatalf("layer %d After = %v, want %v", i, g.Layers[i].After, want)
		}
	}
}
