package cocco

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"soma/internal/core"
	"soma/internal/graph"
	"soma/internal/hw"
	"soma/internal/models"
	"soma/internal/soma"
)

func sh(n, c, h, w int) graph.Shape { return graph.Shape{N: n, C: c, H: h, W: w} }

func kr(kh, kw, s, sw, ph, pw int) graph.Kernel {
	return graph.Kernel{KH: kh, KW: kw, SH: s, SW: sw, PH: ph, PW: pw}
}

func testNet(t testing.TB, batch int) *graph.Graph {
	g := graph.New("c5", 1)
	in := g.Add(graph.Layer{Name: "in", Kind: graph.Input, Out: sh(batch, 16, 56, 56)})
	prev := in
	chans := []int{32, 32, 64, 64}
	for i, c := range chans {
		inC := g.Layer(prev).Out.C
		prev = g.Add(graph.Layer{Kind: graph.Conv, Deps: []graph.Dep{{Producer: prev}},
			Out: sh(batch, c, 56, 56), K: kr(3, 3, 1, 1, 1, 1),
			WeightBytes: int64(inC * c * 9), Ops: int64(2*inC*c*9*56*56) * int64(batch)})
		_ = i
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("testNet: %v", err)
	}
	return g
}

func TestCoccoRunProducesFeasibleBaseline(t *testing.T) {
	g := testNet(t, 1)
	res, err := Run(context.Background(), soma.New(g, hw.Edge(), soma.EDP(), soma.FastParams()))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Cost <= 0 || math.IsInf(res.Cost, 1) {
		t.Fatalf("cost = %g", res.Cost)
	}
	if !res.Metrics.BufferOK {
		t.Fatal("baseline exceeds buffer")
	}
	// Cocco's FLC Set must equal its DRAM Cut Set.
	for i := range res.Encoding.FLCs {
		if !res.Encoding.IsDRAM[i] {
			t.Fatal("Cocco produced a non-DRAM FLC")
		}
	}
}

func TestCoccoHeuristicTilingMonotonicity(t *testing.T) {
	g := testNet(t, 1)
	cfg := hw.Edge()
	// A heavier group (more weights, bigger fmaps) must not tile coarser.
	light := soma.HeuristicTile(g, cfg, []graph.LayerID{g.ComputeLayers()[0]})
	heavy := soma.HeuristicTile(g, cfg, g.ComputeLayers())
	if heavy < light {
		t.Fatalf("heavier group tiles coarser: %d < %d", heavy, light)
	}
	if light < 1 || heavy < 1 {
		t.Fatal("tiling numbers must be positive")
	}
}

func TestCoccoTilingGrowsWithBatch(t *testing.T) {
	g1, g8 := testNet(t, 1), testNet(t, 8)
	cfg := hw.Edge()
	t1 := soma.HeuristicTile(g1, cfg, g1.ComputeLayers())
	t8 := soma.HeuristicTile(g8, cfg, g8.ComputeLayers())
	if t8 <= t1 {
		t.Fatalf("batch 8 should tile finer: %d <= %d", t8, t1)
	}
}

func TestCoccoMutationKeepsInvariant(t *testing.T) {
	g := testNet(t, 1)
	e := soma.New(g, hw.Edge(), soma.EDP(), soma.FastParams())
	enc := core.DefaultEncoding(g, 1)
	heuristicTiling(e, enc)
	rng := newRand(3)
	for i := 0; i < 200; i++ {
		c := enc.Clone()
		kind, ok := mutate(e, c, rng)
		if kind == "" {
			t.Fatalf("iteration %d: unnamed operator", i)
		}
		if !ok {
			continue
		}
		if err := c.Check(g); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		for j := range c.FLCs {
			if !c.IsDRAM[j] {
				t.Fatalf("iteration %d: non-DRAM cut in Cocco encoding", i)
			}
		}
		enc = c
	}
}

func TestSoMaBeatsOrMatchesCocco(t *testing.T) {
	// SoMa explores a strict superset of Cocco's space; with equal search
	// effort on a fusable CNN it must not lose by more than noise.
	g := testNet(t, 1)
	p := soma.DefaultParams()
	base, err := Run(context.Background(), soma.New(g, hw.Edge(), soma.EDP(), p))
	if err != nil {
		t.Fatal(err)
	}
	ours, err := soma.New(g, hw.Edge(), soma.EDP(), p).Run()
	if err != nil {
		t.Fatal(err)
	}
	if ours.Cost > base.Cost*1.05 {
		t.Fatalf("SoMa lost to Cocco: %g vs %g", ours.Cost, base.Cost)
	}
}

// TestCoccoCandidateAllocs gates the allocations of one baseline move on
// the shared stage-1 chain, uncached as Run runs it: once the chain's arena
// and the FLG memo have seen a walk of Cocco candidates, a move - copying
// the candidate, scoring it, accepting or rejecting it - allocates only the
// metrics its miss returns, however many tiles the candidate has.
func TestCoccoCandidateAllocs(t *testing.T) {
	const limit = 1
	for _, name := range []string{"mobilenetv2", "resnet50"} {
		t.Run(name, func(t *testing.T) {
			g, err := models.Build(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			e := soma.New(g, hw.Edge(), soma.EDP(), soma.FastParams())
			e.Cache = nil
			init := core.DefaultEncoding(g, 1)
			heuristicTiling(e, init)
			walk := []*core.Encoding{init}
			rng := newRand(1)
			for len(walk) < 100 {
				c := walk[len(walk)-1].Clone()
				if _, ok := mutate(e, c, rng); ok {
					walk = append(walk, c)
				}
			}
			// The chain proposes the walk twice; the mallocs between the
			// first proposal of the second pass and the end of it are that
			// pass's moves. One OS thread keeps other goroutines' allocations
			// out of the count, as in testing.AllocsPerRun.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var ms runtime.MemStats
			var mallocs [2]uint64
			n := 0
			replay := func(c *core.Encoding, _ *rand.Rand) (string, bool) {
				if n%len(walk) == 0 && n > 0 {
					runtime.ReadMemStats(&ms)
					mallocs[n/len(walk)-1] = ms.Mallocs
				}
				c.CopyFrom(walk[n%len(walk)])
				n++
				return "replay", true
			}
			e.Par.Beta1, e.Par.Stage1MaxIters = 1<<20, 2*len(walk)+1
			if _, _, err := e.AnnealLFA(context.Background(), "cocco", init,
				e.Cfg.GBufBytes, 1, replay); err != nil {
				t.Fatal(err)
			}
			allocs := float64(mallocs[1]-mallocs[0]) / float64(len(walk))
			t.Logf("%.2f allocs per move", allocs)
			if allocs > limit {
				t.Errorf("%.2f allocs per move, limit %d", allocs, limit)
			}
		})
	}
}
