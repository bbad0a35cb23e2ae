package soma

import (
	"context"
	"math"
	"testing"

	"soma/internal/core"
	"soma/internal/graph"
	"soma/internal/hw"
	"soma/internal/sim"
)

func sh(n, c, h, w int) graph.Shape { return graph.Shape{N: n, C: c, H: h, W: w} }

func kr(kh, kw, s, sw, ph, pw int) graph.Kernel {
	return graph.Kernel{KH: kh, KW: kw, SH: s, SW: sw, PH: ph, PW: pw}
}

// testNet is a 6-layer CNN with a residual join: enough structure for all
// LFA operators to fire.
func testNet(t testing.TB) *graph.Graph {
	g := graph.New("t6", 1)
	in := g.Add(graph.Layer{Name: "in", Kind: graph.Input, Out: sh(1, 16, 56, 56)})
	c1 := g.Add(graph.Layer{Name: "c1", Kind: graph.Conv, Deps: []graph.Dep{{Producer: in}},
		Out: sh(1, 32, 56, 56), K: kr(3, 3, 1, 1, 1, 1), WeightBytes: 16 * 32 * 9, Ops: 2 * 16 * 32 * 9 * 56 * 56})
	c2 := g.Add(graph.Layer{Name: "c2", Kind: graph.Conv, Deps: []graph.Dep{{Producer: c1}},
		Out: sh(1, 32, 56, 56), K: kr(3, 3, 1, 1, 1, 1), WeightBytes: 32 * 32 * 9, Ops: 2 * 32 * 32 * 9 * 56 * 56})
	c3 := g.Add(graph.Layer{Name: "c3", Kind: graph.Conv, Deps: []graph.Dep{{Producer: c2}},
		Out: sh(1, 32, 56, 56), K: kr(1, 1, 1, 1, 0, 0), WeightBytes: 32 * 32, Ops: 2 * 32 * 32 * 56 * 56})
	ad := g.Add(graph.Layer{Name: "add", Kind: graph.Eltwise, Deps: []graph.Dep{{Producer: c3}, {Producer: c1}},
		Out: sh(1, 32, 56, 56), Ops: 32 * 56 * 56})
	p := g.Add(graph.Layer{Name: "pool", Kind: graph.Pool, Deps: []graph.Dep{{Producer: ad}},
		Out: sh(1, 32, 28, 28), K: kr(2, 2, 2, 2, 0, 0), Ops: 32 * 28 * 28 * 4})
	g.Add(graph.Layer{Name: "c4", Kind: graph.Conv, Deps: []graph.Dep{{Producer: p}},
		Out: sh(1, 64, 28, 28), K: kr(3, 3, 1, 1, 1, 1), WeightBytes: 32 * 64 * 9, Ops: 2 * 32 * 64 * 9 * 28 * 28})
	if err := g.Validate(); err != nil {
		t.Fatalf("testNet: %v", err)
	}
	return g
}

func TestStage1ImprovesOnNoFusion(t *testing.T) {
	g := testNet(t)
	e := New(g, hw.Edge(), EDP(), FastParams())
	// Cost of the unfused initial solution.
	init, err := core.Parse(g, core.DefaultEncoding(g, 1))
	if err != nil {
		t.Fatal(err)
	}
	initCost := e.objective(sim.Evaluate(init, e.CS, sim.Options{BufferBudget: e.Cfg.GBufBytes}))
	enc, s1, err := e.RunStage1(context.Background(), e.Cfg.GBufBytes, 1)
	if err != nil {
		t.Fatalf("stage1: %v", err)
	}
	if err := enc.Check(g); err != nil {
		t.Fatalf("stage1 returned illegal encoding: %v", err)
	}
	if s1.Cost > initCost {
		t.Fatalf("stage1 worse than init: %g > %g", s1.Cost, initCost)
	}
	if !s1.Metrics.BufferOK {
		t.Fatal("stage1 winner exceeds buffer")
	}
	// On a fusable CNN the search should actually fuse something.
	if enc.NumLGs() >= len(enc.Order) {
		t.Fatalf("no fusion found: %d LGs for %d layers", enc.NumLGs(), len(enc.Order))
	}
}

func TestStage2NeverWorseThanStage1(t *testing.T) {
	g := testNet(t)
	e := New(g, hw.Edge(), EDP(), FastParams())
	enc, s1, err := e.RunStage1(context.Background(), e.Cfg.GBufBytes, 2)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.Parse(g, enc)
	if err != nil {
		t.Fatal(err)
	}
	final, s2 := e.RunStage2(context.Background(), sched, 2)
	if s2.Cost > s1.Cost*1.0001 {
		t.Fatalf("stage2 regressed: %g > %g", s2.Cost, s1.Cost)
	}
	if !final.OrderValid() || !final.LivingValid() {
		t.Fatal("stage2 produced an invalid DLSA")
	}
	if !s2.Metrics.BufferOK {
		t.Fatal("stage2 winner exceeds buffer")
	}
}

func TestRunEndToEnd(t *testing.T) {
	g := testNet(t)
	e := New(g, hw.Edge(), EDP(), FastParams())
	res, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Cost <= 0 || math.IsInf(res.Cost, 1) {
		t.Fatalf("cost = %g", res.Cost)
	}
	if res.Cost != res.Stage2.Cost {
		t.Fatal("result cost must be the stage-2 cost")
	}
	if res.AllocIters < 1 {
		t.Fatalf("allocator iterations = %d", res.AllocIters)
	}
	if res.Stage2.Metrics.Utilization > res.Stage2.Metrics.TheoreticalMaxUtil {
		t.Fatal("utilization above the no-stall bound")
	}
	// The final schedule must replay to the same metrics.
	m, err := sim.Evaluate(res.Schedule, e.CS, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.LatencyNS-res.Stage2.Metrics.LatencyNS) > 1e-6*res.Stage2.Metrics.LatencyNS {
		t.Fatalf("replay mismatch: %g vs %g", m.LatencyNS, res.Stage2.Metrics.LatencyNS)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	g := testNet(t)
	p := FastParams()
	a, err := New(g, hw.Edge(), EDP(), p).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(g, hw.Edge(), EDP(), p).Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost {
		t.Fatalf("same seed diverged: %g vs %g", a.Cost, b.Cost)
	}
}

func TestTinyBufferInfeasible(t *testing.T) {
	g := testNet(t)
	cfg := hw.Edge()
	cfg.GBufBytes = 1 << 10 // 1 KB: nothing fits
	e := New(g, cfg, EDP(), FastParams())
	if _, err := e.Run(); err == nil {
		t.Fatal("1KB buffer must be infeasible")
	}
}

func TestObjectiveExponentsChangeWinner(t *testing.T) {
	g := testNet(t)
	p := FastParams()
	edp, err := New(g, hw.Edge(), EDP(), p).Run()
	if err != nil {
		t.Fatal(err)
	}
	lat, err := New(g, hw.Edge(), Objective{N: 0, M: 1}, p).Run()
	if err != nil {
		t.Fatal(err)
	}
	// A latency-only objective can never find a *slower* schedule than
	// what it reports; both must be feasible and positive.
	if lat.Stage2.Metrics.LatencyNS <= 0 || edp.Stage2.Metrics.LatencyNS <= 0 {
		t.Fatal("non-positive latency")
	}
}

func TestMutateLFAPreservesLegality(t *testing.T) {
	g := testNet(t)
	e := New(g, hw.Edge(), EDP(), FastParams())
	enc := core.DefaultEncoding(g, 1)
	rngEnc := enc
	for i := 0; i < 300; i++ {
		c := rngEnc.Clone()
		kind, ok := e.mutateLFA(c, newRand(int64(i)))
		if kind == "" {
			t.Fatalf("iteration %d: unnamed operator", i)
		}
		if !ok {
			continue
		}
		if err := c.Check(g); err != nil {
			t.Fatalf("iteration %d: illegal encoding: %v", i, err)
		}
		rngEnc = c
	}
}

func TestSizePickerPrefersBigTensors(t *testing.T) {
	g := testNet(t)
	s, err := core.Parse(g, core.DefaultEncoding(g, 1))
	if err != nil {
		t.Fatal(err)
	}
	p := newSizePicker(s)
	rng := newRand(5)
	counts := make(map[int]int)
	for i := 0; i < 5000; i++ {
		counts[p.pick(rng)]++
	}
	// The largest tensor must be sampled more often than the smallest.
	var big, small int
	var bigBytes, smallBytes int64 = -1, 1 << 62
	for i := range s.Tensors {
		if s.Tensors[i].Bytes > bigBytes {
			bigBytes, big = s.Tensors[i].Bytes, i
		}
		if s.Tensors[i].Bytes < smallBytes {
			smallBytes, small = s.Tensors[i].Bytes, i
		}
	}
	if bigBytes > 2*smallBytes && counts[big] <= counts[small] {
		t.Fatalf("size-proportional sampling broken: big=%d small=%d", counts[big], counts[small])
	}
}
