package graph

import "testing"

func TestPointwiseKernel(t *testing.T) {
	k := Pointwise()
	if k.KH != 1 || k.KW != 1 || k.SH != 1 || k.SW != 1 {
		t.Fatalf("Pointwise = %+v", k)
	}
}

func TestHasWeightsAndOutBytes(t *testing.T) {
	g := New("w", 2) // 2-byte elements
	in := g.Add(Layer{Name: "in", Kind: Input, Out: Shape{N: 1, C: 4, H: 2, W: 2}})
	c := g.Add(Layer{Name: "c", Kind: Conv, Deps: []Dep{{Producer: in}},
		Out: Shape{N: 1, C: 8, H: 2, W: 2}, WeightBytes: 32, Ops: 10})
	if g.Layer(c).WeightBytes != 32 || g.Layer(in).WeightBytes != 0 {
		t.Fatal("weight bytes not kept per layer")
	}
	if g.OutBytes(c) != 8*2*2*2 {
		t.Fatalf("OutBytes = %d", g.OutBytes(c))
	}
}

func TestDefaultLayerNaming(t *testing.T) {
	g := New("n", 1)
	in := g.Add(Layer{Kind: Input, Out: Shape{N: 1, C: 1, H: 1, W: 1}})
	if g.Layer(in).Name == "" {
		t.Fatal("unnamed layers must get a generated name")
	}
	if New("e", 0).ElemBytes != 1 {
		t.Fatal("zero elem width must clamp to 1")
	}
}
