package core

import (
	"testing"

	"soma/internal/graph"
	"soma/internal/models"
)

// FuzzParse drives Parse with LFA operator sequences decoded from the fuzz
// input and applied to the no-fusion encoding of a small zoo model. The
// first byte picks the model (mobilenetv2, or gpt2s-prefill for attention's
// global dependencies) and the initial tiling number (1, 2 or 4); every
// following 3-byte group is one operator (see fuzzMutate). Neither the operators nor Parse
// may panic, the operators must keep the encoding structurally legal, and
// every accepted schedule must compute its layers in a valid order and
// gate each reload on exactly its source layer's stores.
func FuzzParse(f *testing.F) {
	var zoo []*graph.Graph
	for _, name := range []string{"mobilenetv2", "gpt2s-prefill"} {
		g, err := models.Build(name, 1)
		if err != nil {
			f.Fatal(err)
		}
		zoo = append(zoo, g)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, tiles := zoo[0], 1
		if len(data) > 0 {
			g, tiles = zoo[data[0]/3%2], 1<<(data[0]%3)
			data = data[1:]
		}
		e := DefaultEncoding(g, tiles)
		const maxOps = 256
		for op := 0; len(data) >= 3 && op < maxOps; op++ {
			fuzzMutate(g, e, data[0], data[1], data[2])
			data = data[3:]
			if err := e.Check(g); err != nil {
				t.Fatalf("operator %d left an illegal encoding %s: %v", op, e, err)
			}
		}
		s, err := Parse(g, e)
		if err != nil {
			return
		}
		if !g.IsValidOrder(s.Enc.Order) {
			t.Fatalf("schedule order is invalid: %s", s.Enc)
		}
		// The compute sequence must visit the layers in a valid order too:
		// a layer's first tile never precedes a producer's first tile.
		seen := make([]bool, len(g.Layers))
		var visit []graph.LayerID
		for _, tl := range s.Tiles {
			if !seen[tl.Layer] {
				seen[tl.Layer] = true
				visit = append(visit, tl.Layer)
			}
		}
		if !g.IsValidOrder(visit) {
			t.Fatalf("tile sequence visits layers in an invalid order: %v", visit)
		}
		if err := checkAfterStores(s); err != nil {
			t.Fatal(err)
		}
	})
}

// fuzzMutate applies the LFA operator op (mod 5) to e with the argument
// bytes a and b: move the layer at a to b, double (b even) or halve FLG a's
// tiling number, add a cut at a, delete cut a keeping the left (b even) or
// right tiling number, or toggle cut a's DRAM flag. Doubling is capped like
// the golden walk's; out-of-range or illegal moves leave e unchanged.
func fuzzMutate(g *graph.Graph, e *Encoding, op, a, b byte) {
	n := len(e.Order)
	switch op % 5 {
	case 0:
		e.MoveLayer(g, int(a)%n, int(b)%n)
	case 1:
		f := int(a) % e.NumFLGs()
		if b%2 == 0 {
			if 2*e.Tile[f] <= goldenMaxTiles(g, e, f) {
				e.Tile[f] *= 2
			}
		} else if e.Tile[f] > 1 {
			e.Tile[f] /= 2
		}
	case 2:
		e.AddFLC(1 + int(a)%(n-1))
	case 3:
		if len(e.FLCs) == 0 {
			return
		}
		i := int(a) % len(e.FLCs)
		tile := e.Tile[i]
		if b%2 == 1 {
			tile = e.Tile[i+1]
		}
		e.RemoveFLC(i, tile)
	default:
		if len(e.FLCs) > 0 {
			i := int(a) % len(e.FLCs)
			e.IsDRAM[i] = !e.IsDRAM[i]
		}
	}
}
