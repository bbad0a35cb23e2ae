// Package soma's root benchmark suite: one benchmark per paper artifact
// (Fig. 2, 3, 6, 7, 8, the Sec. VI-B statistics and the LLM observations)
// plus micro-benchmarks of the pipeline stages. Benchmarks use the fast
// search profile; `somabench` regenerates the full figures.
package soma

import (
	"context"
	"testing"

	"soma/internal/cocco"
	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/dse"
	"soma/internal/engine"
	"soma/internal/exp"
	"soma/internal/graph"
	"soma/internal/hw"
	"soma/internal/isa"
	"soma/internal/models"
	"soma/internal/sim"
	"soma/internal/soma"
	"soma/internal/trace"
	"soma/internal/workload"
)

func fastPar() soma.Params { return soma.FastParams() }

// BenchmarkFig2Motivation regenerates the Sec. III-B double-buffer
// utilization imbalance (one Cocco schedule of ResNet-50, edge, batch 1).
func BenchmarkFig2Motivation(b *testing.B) {
	g := models.ResNet50(1)
	for i := 0; i < b.N; i++ {
		res, err := cocco.Run(context.Background(), soma.New(g, hw.Edge(), soma.EDP(), fastPar()))
		if err != nil {
			b.Fatal(err)
		}
		if res.Metrics.DRAMUtilization >= 1 || res.Metrics.ComputeUtilization >= 1 {
			b.Fatal("utilization out of range")
		}
	}
}

// BenchmarkFig3Scatter regenerates the per-layer and per-tile ops-vs-DRAM
// scatter for ResNet-50.
func BenchmarkFig3Scatter(b *testing.B) {
	g := models.ResNet50(1)
	for i := 0; i < b.N; i++ {
		layers := exp.Fig3Layers(g)
		tiles, err := exp.Fig3Tiles(g, hw.Edge(), fastPar())
		if err != nil {
			b.Fatal(err)
		}
		if exp.Spread(tiles) <= exp.Spread(layers) {
			b.Fatal("tiles must be more spread out than layers")
		}
	}
}

// BenchmarkFig6BarGroup regenerates one Fig. 6 bar group (Cocco vs Ours_1
// vs Ours_2) and its Sec. VI-B1 fusion statistics (tile counts, LGs, FLGs)
// on ResNet-50, edge, batch 1.
func BenchmarkFig6BarGroup(b *testing.B) {
	sw := dse.Sweep{Platforms: []string{"edge"}, Models: []string{"resnet50"},
		Search: &dse.Search{Profile: "fast"}}
	for i := 0; i < b.N; i++ {
		pairs, err := exp.Pairs(context.Background(), sw, dse.Options{})
		if err != nil {
			b.Fatal(err)
		}
		r := exp.BarGroup(pairs[0])
		if r.Err != nil {
			b.Fatal(r.Err)
		}
		if r.Ours2.LatencyNS > r.Cocco.LatencyNS {
			b.Fatal("SoMa lost to Cocco on its best-case workload")
		}
		if r.Cocco.Tiles <= r.Ours2.Tiles {
			b.Fatal("Cocco must over-tile relative to SoMa")
		}
	}
}

// BenchmarkLLMDecode regenerates one LLM-observation point: GPT-2-Small
// decode at batch 4 on the edge platform.
func BenchmarkLLMDecode(b *testing.B) {
	g := models.GPT2Decode(models.GPT2Small(), 4)
	for i := 0; i < b.N; i++ {
		res, err := soma.New(g, hw.Edge(), soma.EDP(), fastPar()).Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Stage2.Metrics.Utilization > 0.2 {
			b.Fatal("decode cannot be compute-bound")
		}
	}
}

// BenchmarkFig7DSE regenerates one cell of the Fig. 7 heatmap (ResNet-50,
// batch 1, 32 GB/s x 8 MB).
func BenchmarkFig7DSE(b *testing.B) {
	g := models.ResNet50(1)
	cfg := hw.Edge().WithDRAM(32).WithGBuf(8 << 20)
	for i := 0; i < b.N; i++ {
		if _, err := soma.New(g, cfg, soma.EDP(), fastPar()).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8Trace regenerates the execution-graph comparison for the
// quickstart-scale network.
func BenchmarkFig8Trace(b *testing.B) {
	c := exp.Case{Platform: "edge", Workload: "resnet50", Batch: 1}
	for i := 0; i < b.N; i++ {
		tp, err := exp.Fig8(context.Background(), c, dse.Search{Profile: "fast"}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(trace.Render(tp.Ours2, tp.M2, 100)) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkScenario measures one composed multi-model run: the built-in
// multi-tenant CNN mix scheduled as a single graph plus its per-model
// isolated baselines (the engine.Run flow behind `soma -scenario` and
// scenario jobs in somad).
func BenchmarkScenario(b *testing.B) {
	sc, err := workload.Builtin("multi-tenant-cnn")
	if err != nil {
		b.Fatal(err)
	}
	par := fastPar()
	par.Beta1, par.Beta2 = 2, 1
	for i := 0; i < b.N; i++ {
		res, err := engine.Run(context.Background(), engine.Request{Scenario: &sc,
			Platform: "edge", Objective: soma.EDP(), Params: par}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Scenario == nil || res.Scenario.ComposedSpeedup <= 0 {
			b.Fatal("scenario aggregates missing")
		}
	}
}

// --- portfolio search engine ----------------------------------------------

// benchPortfolio runs the SoMa search on ResNet-50 (edge, batch 1) with an
// 8-chain portfolio on the given worker count. Comparing the Workers=1 and
// Workers=8 variants measures the engine's parallel speedup; the best
// schedule is identical across all of them by construction.
func benchPortfolio(b *testing.B, workers int) {
	g := models.ResNet50(1)
	par := fastPar()
	par.Chains = 8
	par.Workers = workers
	for i := 0; i < b.N; i++ {
		res, err := soma.New(g, hw.Edge(), soma.EDP(), par).Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Cache.Hits == 0 {
			b.Fatal("portfolio run must produce evaluation-cache hits")
		}
	}
}

// BenchmarkPortfolioSerial is the baseline: 8 chains on one worker.
func BenchmarkPortfolioSerial(b *testing.B) { benchPortfolio(b, 1) }

// BenchmarkPortfolio4Workers runs the same 8 chains on 4 workers.
func BenchmarkPortfolio4Workers(b *testing.B) { benchPortfolio(b, 4) }

// BenchmarkPortfolio8Workers runs the same 8 chains on 8 workers.
func BenchmarkPortfolio8Workers(b *testing.B) { benchPortfolio(b, 8) }

// BenchmarkEvalCacheHit measures a memoized re-evaluation (one canonical-key
// build plus a map lookup) against BenchmarkSimulate's full replay.
func BenchmarkEvalCacheHit(b *testing.B) {
	s := resnetSchedule(b)
	cs := coresched.New(hw.Edge())
	cache := sim.NewCache(0)
	if _, err := sim.CachedEvaluate(cache, s, cs, sim.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.CachedEvaluate(cache, s, cs, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the pipeline stages -------------------------------

func resnetSchedule(b *testing.B) *core.Schedule {
	b.Helper()
	g := models.ResNet50(1)
	s, err := core.Parse(g, core.DefaultEncoding(g, 4))
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkParse measures LFA parsing of ResNet-50 (encoding -> schedule).
func BenchmarkParse(b *testing.B) {
	g := models.ResNet50(1)
	e := core.DefaultEncoding(g, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Parse(g, e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulate measures one timeline evaluation of ResNet-50.
func BenchmarkSimulate(b *testing.B) {
	s := resnetSchedule(b)
	cs := coresched.New(hw.Edge())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Evaluate(s, cs, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreSched measures one uncached core-array scheduler search.
func BenchmarkCoreSched(b *testing.B) {
	req := coresched.Request{
		Kind: graph.Conv, OutElems: 56 * 56, OutC: 256, InC: 128,
		KH: 3, KW: 3, InBytes: 58 * 58 * 128, OutBytes: 56 * 56 * 256,
		WeightBytes: 128 * 256 * 9, Ops: 2 * 56 * 56 * 256 * 128 * 9, ElemBytes: 1,
	}
	for i := 0; i < b.N; i++ {
		cs := coresched.New(hw.Edge()) // fresh cache each time
		cs.Evaluate(req)
	}
}

// BenchmarkBufferUsage measures buffer-occupancy accounting.
func BenchmarkBufferUsage(b *testing.B) {
	s := resnetSchedule(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.PeakBuffer() <= 0 {
			b.Fatal("no buffer usage")
		}
	}
}

// BenchmarkIRGenerate measures lowering to the abstract instruction stream.
func BenchmarkIRGenerate(b *testing.B) {
	s := resnetSchedule(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := isa.Generate(s, hw.Edge().GBufBytes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDLSAMove measures one stage-2 neighbor move + legality check.
func BenchmarkDLSAMove(b *testing.B) {
	s := resnetSchedule(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := s.Clone()
		c.MoveTensor(i%len(c.Order), (i*7)%len(c.Order))
		if !c.OrderValid() {
			b.Fatal("move broke order")
		}
	}
}
