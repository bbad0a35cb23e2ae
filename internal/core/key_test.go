package core

import (
	"testing"

	"soma/internal/graph"
)

func keyTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("keys", 1)
	sh := graph.Shape{N: 1, C: 8, H: 16, W: 16}
	in := g.Add(graph.Layer{Name: "in", Kind: graph.Input, Out: sh})
	a := g.Add(graph.Layer{Name: "a", Kind: graph.Conv, Deps: []graph.Dep{{Producer: in}},
		Out: sh, K: graph.Kernel{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1},
		WeightBytes: 8 * 8 * 9, Ops: 2 * 8 * 8 * 9 * 16 * 16})
	b := g.Add(graph.Layer{Name: "b", Kind: graph.Conv, Deps: []graph.Dep{{Producer: a}},
		Out: sh, K: graph.Kernel{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1},
		WeightBytes: 8 * 8 * 9, Ops: 2 * 8 * 8 * 9 * 16 * 16})
	g.Add(graph.Layer{Name: "c", Kind: graph.Conv, Deps: []graph.Dep{{Producer: b}},
		Out: sh, K: graph.Kernel{KH: 1, KW: 1, SH: 1, SW: 1},
		WeightBytes: 8 * 8, Ops: 2 * 8 * 8 * 16 * 16})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEncodingCanonicalKeyDistinguishesAttributes(t *testing.T) {
	g := keyTestGraph(t)
	base := DefaultEncoding(g, 1)
	key := base.CanonicalKey()

	if clone := base.Clone(); clone.CanonicalKey() != key {
		t.Fatal("clone must share the canonical key")
	}

	tiled := base.Clone()
	tiled.Tile[0] *= 2
	if tiled.CanonicalKey() == key {
		t.Fatal("tiling change must change the key")
	}

	cut := base.Clone()
	cut.IsDRAM[0] = false
	if cut.CanonicalKey() == key {
		t.Fatal("DRAM-cut change must change the key")
	}

	merged := base.Clone()
	if !merged.RemoveFLC(0, 1) {
		t.Fatal("RemoveFLC failed")
	}
	if merged.CanonicalKey() == key {
		t.Fatal("FLC change must change the key")
	}
}

func TestScheduleCanonicalKeyTracksDLSA(t *testing.T) {
	g := keyTestGraph(t)
	s, err := Parse(g, DefaultEncoding(g, 2))
	if err != nil {
		t.Fatal(err)
	}
	key := s.CanonicalKey()
	if s.Clone().CanonicalKey() != key {
		t.Fatal("clone must share the canonical key")
	}

	// Move the first tensor to the latest position that does not deadlock.
	moved := s.Clone()
	to := len(moved.Order) - 1
	for to > 0 && !moved.MoveTensor(0, to) {
		to--
	}
	if to == 0 {
		t.Fatal("no legal move of the first tensor")
	}
	if moved.CanonicalKey() == key {
		t.Fatal("tensor-order change must change the key")
	}

	// Jitter the first adjustable Living Duration and expect a new key.
	jittered := s.Clone()
	changed := false
	for i := range jittered.Tensors {
		tn := &jittered.Tensors[i]
		if tn.Kind.IsLoad() && tn.Start > 0 && jittered.SetLiving(i, tn.Start-1) {
			changed = true
			break
		}
		if !tn.Kind.IsLoad() && jittered.SetLiving(i, tn.End+1) {
			changed = true
			break
		}
	}
	if changed && jittered.CanonicalKey() == key {
		t.Fatal("living-duration change must change the key")
	}

	// Keys embed the encoding: the same DLSA shape under another encoding
	// must not collide.
	other, err := Parse(g, DefaultEncoding(g, 1))
	if err != nil {
		t.Fatal(err)
	}
	if other.CanonicalKey() == key {
		t.Fatal("different encodings must produce different schedule keys")
	}
}
