package engine

import (
	"bytes"
	"context"
	"testing"

	"soma/internal/report"
	"soma/internal/sim"
	"soma/internal/soma"
	"soma/internal/workload"
)

func scenarioPar() soma.Params {
	par := soma.FastParams()
	par.Beta1, par.Beta2 = 2, 1
	par.Stage1MaxIters, par.Stage2MaxIters = 400, 600
	return par
}

// TestRunScenarioAggregates: a composed run carries the scenario section with
// per-component isolated results and sane aggregate comparisons.
func TestRunScenarioAggregates(t *testing.T) {
	sc, err := workload.Builtin("multi-tenant-cnn")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Request{Scenario: &sc, Platform: "edge",
		Objective: soma.EDP(), Params: scenarioPar()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload.Model != ScenarioModelName("multi-tenant-cnn") {
		t.Fatalf("workload model %q", res.Workload.Model)
	}
	info := res.Scenario
	if info == nil {
		t.Fatal("no scenario section on a composed result")
	}
	if len(info.Components) != 2 {
		t.Fatalf("want 2 components, got %d", len(info.Components))
	}
	var isolatedSum float64
	for _, c := range info.Components {
		if c.Isolated == nil {
			t.Fatalf("component %s has no isolated result", c.Name)
		}
		if c.Isolated.Workload.Model != c.Model || c.Isolated.Cost <= 0 {
			t.Fatalf("component %s isolated result malformed", c.Name)
		}
		if c.Layers <= 0 || c.Ops <= 0 {
			t.Fatalf("component %s ownership snapshot empty", c.Name)
		}
		isolatedSum += c.Isolated.Metrics.LatencyNS
	}
	if info.IsolatedSumLatencyNS != isolatedSum {
		t.Fatalf("isolated sum %g != recomputed %g", info.IsolatedSumLatencyNS, isolatedSum)
	}
	if info.ComposedSpeedup <= 0 || info.WeightedIsolatedCost <= 0 {
		t.Fatalf("aggregates not computed: %+v", info)
	}
	if res.Cost <= 0 || res.Metrics.LatencyNS <= 0 {
		t.Fatalf("composed metrics degenerate: cost %g", res.Cost)
	}
}

// TestRunScenarioDeterministicAcrossWorkers: a fixed-seed scenario run is a
// pure function of (spec, platform, params) - varying the portfolio worker
// count or re-running must return byte-identical payloads, up to the
// reporting-only search.workers echo (which records the worker count itself)
// and the cache counters (which, like dse journal rows document, depend on
// how concurrent chains interleave their shared-cache lookups).
func TestRunScenarioDeterministicAcrossWorkers(t *testing.T) {
	sc, err := workload.Builtin("multi-tenant-cnn")
	if err != nil {
		t.Fatal(err)
	}
	scrub := func(s *report.Search) {
		s.Workers = 0
		s.CacheHits, s.CacheMisses, s.CacheEntries, s.CacheGenerations = 0, 0, 0, 0
		s.CacheHitRate = 0
	}
	render := func(chains, workers int) []byte {
		par := scenarioPar()
		par.Chains = chains
		par.Workers = workers
		res, err := Run(context.Background(), Request{Scenario: &sc, Platform: "edge",
			Objective: soma.EDP(), Params: par}, nil)
		if err != nil {
			t.Fatal(err)
		}
		scrub(res.Search)
		for i := range res.Scenario.Components {
			scrub(res.Scenario.Components[i].Isolated.Search)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := render(2, 1)
	if !bytes.Equal(serial, render(2, 3)) {
		t.Fatal("scenario result changed with the worker count")
	}
	if !bytes.Equal(serial, render(2, 1)) {
		t.Fatal("scenario result changed between identical runs")
	}
}

// TestScenarioCacheCountersPartitionSharedCache: every sub-run of a scenario
// reports only its own traffic on the shared cache, so the composed run's
// and the components' hits and misses add up to the cache's own counters.
func TestScenarioCacheCountersPartitionSharedCache(t *testing.T) {
	sc, err := workload.Builtin("multi-tenant-cnn")
	if err != nil {
		t.Fatal(err)
	}
	cache := sim.NewCache(0)
	res, err := Run(context.Background(), Request{Scenario: &sc, Platform: "edge",
		Objective: soma.EDP(), Params: scenarioPar(), Cache: cache}, nil)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := res.Search.CacheHits, res.Search.CacheMisses
	last := res.Search
	for _, c := range res.Scenario.Components {
		hits += c.Isolated.Search.CacheHits
		misses += c.Isolated.Search.CacheMisses
		last = c.Isolated.Search
	}
	st := cache.Stats()
	if hits != st.Hits || misses != st.Misses {
		t.Fatalf("sub-runs report %d hits / %d misses, the cache counted %d / %d",
			hits, misses, st.Hits, st.Misses)
	}
	if last.CacheEntries != st.Entries {
		t.Fatalf("last sub-run reports %d entries, the cache holds %d", last.CacheEntries, st.Entries)
	}
}
