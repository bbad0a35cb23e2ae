package core

import (
	"testing"

	"soma/internal/graph"
)

// decodeNet builds a decode-style layer: tiny activations, a per-sample
// KV-cache operand modelled as WeightsPerSample.
func decodeNet(t *testing.T, batch int) (*graph.Graph, graph.LayerID) {
	t.Helper()
	g := graph.New("dec", 1)
	in := g.Add(graph.Layer{Name: "in", Kind: graph.Input, Out: graph.Shape{N: batch, C: 64, H: 1, W: 1}})
	q := g.Add(graph.Layer{Name: "q", Kind: graph.GEMM, Deps: []graph.Dep{{Producer: in}},
		Out: graph.Shape{N: batch, C: 64, H: 1, W: 1}, WeightBytes: 64 * 64, Ops: int64(batch) * 2 * 64 * 64})
	qk := g.Add(graph.Layer{Name: "qk", Kind: graph.MatMul,
		Deps:        []graph.Dep{{Producer: q}},
		Out:         graph.Shape{N: batch, C: 128, H: 1, W: 1},
		WeightBytes: int64(batch) * 128 * 64, WeightsPerSample: true,
		Ops: int64(batch) * 2 * 128 * 64})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g, qk
}

func TestPerSampleWeightsSplitWithBatchTiling(t *testing.T) {
	g, qk := decodeNet(t, 4)
	// Put qk in its own FLG with T=4: the batch axis splits, and the KV
	// operand must split with it (4 loads of 1/4 size each).
	e := &Encoding{
		Order:  g.ComputeLayers(),
		FLCs:   []int{1},
		IsDRAM: []bool{true},
		Tile:   []int{1, 4},
	}
	s := mustParse(t, g, e)
	var loads []Tensor
	for _, ts := range s.Tensors {
		if ts.Kind == LoadWeight && ts.Layer == qk {
			loads = append(loads, ts)
		}
	}
	if len(loads) != 4 {
		t.Fatalf("per-sample weight loads = %d, want 4", len(loads))
	}
	total := g.Layer(qk).WeightBytes
	for _, l := range loads {
		if l.Bytes != total/4 {
			t.Fatalf("per-tile cache slice = %d, want %d", l.Bytes, total/4)
		}
		// Streamed per tile: released right after the consuming tile.
		if l.Release != l.FirstUse+1 {
			t.Fatalf("per-sample load lifetime [%d,%d) should be one tile",
				l.FirstUse, l.Release)
		}
	}
}

func TestPerSampleWeightsSingleTile(t *testing.T) {
	g, qk := decodeNet(t, 4)
	e := &Encoding{
		Order:  g.ComputeLayers(),
		FLCs:   []int{1},
		IsDRAM: []bool{true},
		Tile:   []int{1, 1},
	}
	s := mustParse(t, g, e)
	count := 0
	for _, ts := range s.Tensors {
		if ts.Kind == LoadWeight && ts.Layer == qk {
			count++
			if ts.Bytes != g.Layer(qk).WeightBytes {
				t.Fatalf("single-tile cache bytes = %d", ts.Bytes)
			}
		}
	}
	if count != 1 {
		t.Fatalf("loads = %d, want 1", count)
	}
}

func TestPerSampleTileRequestScalesWeights(t *testing.T) {
	g, _ := decodeNet(t, 4)
	e := &Encoding{
		Order:  g.ComputeLayers(),
		FLCs:   []int{1},
		IsDRAM: []bool{true},
		Tile:   []int{1, 4},
	}
	s := mustParse(t, g, e)
	for i := range s.Tiles {
		if g.Layer(s.Tiles[i].Layer).Name != "qk" {
			continue
		}
		r := s.TileRequest(i)
		want := g.Layer(s.Tiles[i].Layer).WeightBytes / 4
		if r.WeightBytes != want {
			t.Fatalf("tile weight bytes = %d, want %d", r.WeightBytes, want)
		}
	}
}

func TestPerSampleWeightsReduceBufferPeak(t *testing.T) {
	g, _ := decodeNet(t, 8)
	coarse := mustParse(t, g, &Encoding{Order: g.ComputeLayers(), FLCs: []int{1},
		IsDRAM: []bool{true}, Tile: []int{1, 1}})
	fine := mustParse(t, g, &Encoding{Order: g.ComputeLayers(), FLCs: []int{1},
		IsDRAM: []bool{true}, Tile: []int{1, 8}})
	if fine.PeakBuffer() >= coarse.PeakBuffer() {
		t.Fatalf("batch tiling should shrink the cache footprint: %d >= %d",
			fine.PeakBuffer(), coarse.PeakBuffer())
	}
}
