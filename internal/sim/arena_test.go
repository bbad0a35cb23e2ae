package sim

import (
	"fmt"
	"testing"

	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/graph"
	"soma/internal/hw"
	"soma/internal/models"
)

// TestArenaMatchesEvaluate: an arena evaluation of an encoding - memoized
// FLG plans and tile costs, reused buffers, right after a much larger
// schedule - equals Evaluate and the reference merge on the fresh parse,
// parse errors included, and its tile costs equal PrecomputeTileCosts bit
// for bit. The memo's tiny budget keeps it evicting throughout.
func TestArenaMatchesEvaluate(t *testing.T) {
	cut := models.GPT2Small()
	cut.Layers = 2
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"small", smallNet(t)},
		{"gpt2s-prefill-2blk", models.GPT2Prefill(cut, 1)},
	}
	for _, name := range []string{"mobilenetv2", "gpt2s-decode"} {
		g, err := models.Build(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, struct {
			name string
			g    *graph.Graph
		}{name, g})
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
					what := fmt.Sprintf("memo budget %d, encoding %d", budget, k)
					am, aerr := a.Evaluate(enc, opt)
					s, perr := core.Parse(c.g, enc)
					if perr != nil {
						if aerr == nil || aerr.Error() != perr.Error() {
							t.Fatalf("%s: arena error %v, Parse error %v", what, aerr, perr)
						}
						continue
					}
					rm, rerr := referenceEvaluate(s, cs, opt.BufferBudget)
					if d := sameResult(am, aerr, rm, rerr); d != "" {
						t.Fatalf("%s: arena: %s", what, d)
					}
					fm, ferr := Evaluate(s, cs, opt)
					if d := sameResult(fm, ferr, rm, rerr); d != "" {
						t.Fatalf("%s: Evaluate: %s", what, d)
					}
					want := PrecomputeTileCosts(s, cs)
					got := &a.eval.tc
					if got.CoreEnergy != want.CoreEnergy || got.ComputeBusy != want.ComputeBusy ||
						len(got.Dur) != len(want.Dur) {
						t.Fatalf("%s: arena tile costs (%v pJ, %v ns, %d tiles), precomputed (%v, %v, %d)",
							what, got.CoreEnergy, got.ComputeBusy, len(got.Dur),
							want.CoreEnergy, want.ComputeBusy, len(want.Dur))
					}
					for i := range want.Dur {
						if got.Dur[i] != want.Dur[i] {
							t.Fatalf("%s: tile %d lasts %v in the arena, %v precomputed", what, i, got.Dur[i], want.Dur[i])
						}
					}
				}
			}
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
