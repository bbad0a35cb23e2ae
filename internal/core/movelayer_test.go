package core

import (
	"math/rand"
	"slices"
	"testing"

	"soma/internal/graph"
	"soma/internal/models"
	"soma/internal/workload"
)

// moveLayerGraphs are the graphs the MoveLayer tests walk: a CNN,
// attention's global dependencies, and a sequential scenario whose second
// model's source layer waits on the first model's sink through a
// Layer.After barrier.
func moveLayerGraphs(tb testing.TB) []*graph.Graph {
	tb.Helper()
	var gs []*graph.Graph
	for _, name := range []string{"mobilenetv2", "gpt2s-prefill"} {
		g, err := models.Build(name, 1)
		if err != nil {
			tb.Fatal(err)
		}
		gs = append(gs, g)
	}
	sc, err := workload.Builtin("sequential-cnn-pair")
	if err != nil {
		tb.Fatal(err)
	}
	g, _, err := sc.Compose()
	if err != nil {
		tb.Fatal(err)
	}
	return append(gs, g)
}

// moveLayerRef is the definition the in-place MoveLayer must agree with:
// rotate a copy of the order, then check the whole result.
func moveLayerRef(g *graph.Graph, order []graph.LayerID, from, to int) ([]graph.LayerID, bool) {
	n := len(order)
	if from < 0 || from >= n || to < 0 || to >= n || from == to {
		return nil, false
	}
	cand := slices.Clone(order)
	id := cand[from]
	copy(cand[from:], cand[from+1:])
	copy(cand[to+1:], cand[to:n-1])
	cand[to] = id
	if !g.IsValidOrder(cand) {
		return nil, false
	}
	return cand, true
}

// checkMoveLayer applies one move to e and fails unless it matches the
// reference: the same verdict, the same order after an accepted move, and
// an untouched order after a rejected one.
func checkMoveLayer(t *testing.T, g *graph.Graph, e *Encoding, from, to int) {
	t.Helper()
	before := slices.Clone(e.Order)
	want, wantOK := moveLayerRef(g, before, from, to)
	ok := e.MoveLayer(g, from, to)
	switch {
	case ok != wantOK:
		t.Fatalf("MoveLayer(%d, %d) = %v, reference %v", from, to, ok, wantOK)
	case ok && !slices.Equal(e.Order, want):
		t.Fatalf("MoveLayer(%d, %d): order %v, reference %v", from, to, e.Order, want)
	case !ok && !slices.Equal(e.Order, before):
		t.Fatalf("rejected MoveLayer(%d, %d) changed the order", from, to)
	}
}

// FuzzMoveLayer drives MoveLayer with move sequences decoded from the fuzz
// input and checks every move against moveLayerRef. The first byte picks
// the graph (see moveLayerGraphs); every following 4-byte group is one
// move, from and to as big-endian 16-bit values modulo the order length,
// applied to the order the previous moves left.
func FuzzMoveLayer(f *testing.F) {
	gs := moveLayerGraphs(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		g := gs[0]
		if len(data) > 0 {
			g = gs[int(data[0])%len(gs)]
			data = data[1:]
		}
		e := DefaultEncoding(g, 1)
		n := len(e.Order)
		for ; len(data) >= 4; data = data[4:] {
			from := (int(data[0])<<8 | int(data[1])) % n
			to := (int(data[2])<<8 | int(data[3])) % n
			checkMoveLayer(t, g, e, from, to)
		}
	})
}

// TestMoveLayerEveryPair checks every (from, to) pair against moveLayerRef
// on each graph's insertion order and on an order a random walk of legal
// moves reached.
func TestMoveLayerEveryPair(t *testing.T) {
	for _, g := range moveLayerGraphs(t) {
		t.Run(g.Name, func(t *testing.T) {
			walked := DefaultEncoding(g, 1)
			n := len(walked.Order)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 20*n; i++ {
				walked.MoveLayer(g, rng.Intn(n), rng.Intn(n))
			}
			for _, start := range []*Encoding{DefaultEncoding(g, 1), walked} {
				e := start.Clone()
				for from := 0; from < n; from++ {
					for to := 0; to < n; to++ {
						checkMoveLayer(t, g, e, from, to)
						e.Order = append(e.Order[:0], start.Order...)
					}
				}
			}
		})
	}
}
