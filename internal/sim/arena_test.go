package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/graph"
	"soma/internal/hw"
	"soma/internal/models"
)

// checkArena evaluates enc in a and compares the result with Evaluate and
// the reference merge on the fresh parse, with ==, errors included. It
// reports whether enc parses.
func checkArena(t *testing.T, a *Arena, enc *core.Encoding, opt Options, what string) bool {
	t.Helper()
	am, aerr := a.Evaluate(enc, opt)
	s, perr := core.Parse(a.g, enc)
	if perr != nil {
		if aerr == nil || aerr.Error() != perr.Error() {
			t.Fatalf("%s: arena error %v, Parse error %v", what, aerr, perr)
		}
		return false
	}
	rm, rerr := referenceEvaluate(s, a.cs, opt.BufferBudget)
	if d := sameResult(am, aerr, rm, rerr); d != "" {
		t.Fatalf("%s: arena: %s", what, d)
	}
	fm, ferr := Evaluate(s, a.cs, opt)
	if d := sameResult(fm, ferr, rm, rerr); d != "" {
		t.Fatalf("%s: Evaluate: %s", what, d)
	}
	return true
}

// TestArenaMatchesEvaluate: an arena evaluation of an encoding - memoized
// FLG plans, slab sizes and tile costs, reused buffers, right after a much
// larger schedule - equals Evaluate and the reference merge on the fresh
// parse, parse errors included. The memo's tiny budget keeps it evicting
// throughout.
//
// The walks run 200 steps of the stage-1 LFA operators, moving to every
// candidate that parses, on graphs that exercise each tensor rule: ires
// (weights, halo slabs, multi-consumer producers), gpt2s-decode at batch 4
// (per-sample weights), and the 2-block prefill cut at 1, 4 and 16 tiles
// per layer (global dependencies, single- and multi-tile consumers).
func TestArenaMatchesEvaluate(t *testing.T) {
	cut := models.GPT2Small()
	cut.Layers = 2
	prefill := models.GPT2Prefill(cut, 1)
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"small", smallNet(t)},
		{"gpt2s-prefill-2blk", prefill},
		{"mobilenetv2", build(t, "mobilenetv2", 2)},
		{"gpt2s-decode", build(t, "gpt2s-decode", 2)},
	}
	for gi, c := range graphs {
		t.Run(c.name, func(t *testing.T) {
			cs := coresched.New(hw.Edge())
			for _, budget := range []int64{core.DefaultFLGMemoBytes, 16 << 10} {
				a := NewArena(c.g, cs, core.NewFLGMemo(c.g, cs, budget))
				big := core.DefaultEncoding(c.g, 32)
				for k := 0; k < 40; k++ {
					enc := randomEncoding(c.g, int64(100*gi+k))
					if k%5 == 0 {
						enc = big
					}
					opt := Options{BufferBudget: int64(k%3) << 20}
					checkArena(t, a, enc, opt, fmt.Sprintf("memo budget %d, encoding %d", budget, k))
				}
			}
		})
	}

	walks := []struct {
		name  string
		g     *graph.Graph
		tiles int
	}{
		{"ires", build(t, "ires", 1), 1},
		{"gpt2s-decode-b4", build(t, "gpt2s-decode", 4), 1},
		{"gpt2s-prefill-2blk-t1", prefill, 1},
		{"gpt2s-prefill-2blk-t4", prefill, 4},
		{"gpt2s-prefill-2blk-t16", prefill, 16},
	}
	for wi, w := range walks {
		t.Run("walk/"+w.name, func(t *testing.T) {
			cs := coresched.New(hw.Edge())
			memo := core.NewFLGMemo(w.g, cs, 64<<10)
			a := NewArena(w.g, cs, memo)
			rng := rand.New(rand.NewSource(int64(wi + 1)))
			cur := core.DefaultEncoding(w.g, w.tiles)
			parsed := 0
			for step := 0; step < 200; step++ {
				cand := cur.Clone()
				lfaMutate(w.g, cand, byte(rng.Intn(5)), byte(rng.Intn(256)), byte(rng.Intn(256)))
				opt := Options{BufferBudget: int64(step%3) << 20}
				if checkArena(t, a, cand, opt, fmt.Sprintf("step %d", step)) {
					cur = cand
					parsed++
				}
			}
			if st := memo.Stats(); st.Evictions == 0 {
				t.Errorf("the memo never evicted (%d entries, %d bytes)", st.Entries, st.Bytes)
			}
			t.Logf("%d of 200 candidates parsed", parsed)
		})
	}
}

// TestArenaRejectsTraceAndTileCosts: the arena owns the timelines and the
// tile costs.
func TestArenaRejectsTraceAndTileCosts(t *testing.T) {
	g := smallNet(t)
	a := NewArena(g, coresched.New(hw.Edge()), nil)
	enc := core.DefaultEncoding(g, 1)
	for _, opt := range []Options{{Trace: true}, {TileCosts: &TileCosts{}}} {
		if _, err := a.Evaluate(enc, opt); err == nil {
			t.Fatalf("options %+v accepted", opt)
		}
	}
	if _, err := a.Evaluate(enc, Options{}); err != nil {
		t.Fatal(err)
	}
}

// build builds a zoo model.
func build(t testing.TB, name string, batch int) *graph.Graph {
	t.Helper()
	g, err := models.Build(name, batch)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// lfaMutate applies the LFA operator op (mod 5) to e with the argument
// bytes a and b, as core's fuzz target decodes them: move the layer at a to
// b, double (b even) or halve FLG a's tiling number, add a cut at a, delete
// cut a keeping the left (b even) or right tiling number, or toggle cut a's
// DRAM flag. Doubling stops at the FLG's smallest layer's element count;
// out-of-range or illegal moves leave e unchanged.
func lfaMutate(g *graph.Graph, e *core.Encoding, op, a, b byte) {
	n := len(e.Order)
	switch op % 5 {
	case 0:
		e.MoveLayer(g, int(a)%n, int(b)%n)
	case 1:
		f := int(a) % e.NumFLGs()
		if b%2 == 0 {
			limit := 1 << 30
			for _, id := range e.FLGLayers(f) {
				s := g.Layer(id).Out
				limit = min(limit, s.N*s.H*s.W)
			}
			if 2*e.Tile[f] <= limit {
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

// FuzzArenaEvaluate drives the arena with LFA operator sequences decoded
// like core.FuzzParse's: the first byte picks the model (mobilenetv2, or
// gpt2s-prefill for attention's global dependencies) and the no-fusion
// start's tiling number (1, 2 or 4), every following 3-byte group is one
// operator (see lfaMutate). One arena evaluates the start and the final
// encoding, each of which must equal Evaluate on the fresh parse and the
// reference merge, errors included.
func FuzzArenaEvaluate(f *testing.F) {
	zoo := []*graph.Graph{build(f, "mobilenetv2", 1), build(f, "gpt2s-prefill", 1)}
	cs := coresched.New(hw.Edge())
	f.Fuzz(func(t *testing.T, data []byte) {
		g, tiles := zoo[0], 1
		if len(data) > 0 {
			g, tiles = zoo[data[0]/3%2], 1<<(data[0]%3)
			data = data[1:]
		}
		e := core.DefaultEncoding(g, tiles)
		a := NewArena(g, cs, core.NewFLGMemo(g, cs, 64<<10))
		checkArena(t, a, e, Options{}, "start")
		const maxOps = 256
		for op := 0; len(data) >= 3 && op < maxOps; op++ {
			lfaMutate(g, e, data[0], data[1], data[2])
			data = data[3:]
		}
		checkArena(t, a, e, Options{}, "end")
	})
}
