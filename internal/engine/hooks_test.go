package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"soma/internal/hw"
	"soma/internal/sim"
	"soma/internal/soma"
	"soma/internal/testutil"
	"soma/internal/workload"
)

// collect runs the request with a recording hooks stream.
func collect(t *testing.T, req Request) []Event {
	t.Helper()
	var mu sync.Mutex
	var events []Event
	_, err := Run(context.Background(), req, &Hooks{Event: func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// checkOrdering asserts the stream invariants every consumer may rely on:
// consecutive Seq numbering, a "start" first and a "done" last, and - within
// each (component, stage) - improvements and completions only after the
// stage's start event.
func checkOrdering(t *testing.T, events []Event) {
	t.Helper()
	if len(events) < 2 {
		t.Fatalf("only %d events streamed", len(events))
	}
	for i, e := range events {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d; delivery order must match Seq", i, e.Seq)
		}
	}
	if events[0].Kind != "start" {
		t.Errorf("first event = %q, want start", events[0].Kind)
	}
	if last := events[len(events)-1]; last.Kind != "done" {
		t.Errorf("last event = %q, want done", last.Kind)
	}
	type key struct {
		component, stage string
		allocIter        int
	}
	started := map[key]bool{}
	for i, e := range events {
		k := key{e.Component, e.Stage, e.AllocIter}
		switch e.Kind {
		case "stage":
			started[k] = true
		case "improve", "stage-done":
			if !started[k] {
				t.Fatalf("event %d (%s %s/%s alloc %d) arrived before its stage start",
					i, e.Kind, e.Component, e.Stage, e.AllocIter)
			}
			if e.Kind == "stage-done" {
				// A finished stage emits no further improvements.
				started[k] = false
			}
		}
	}
}

func TestHooksEventOrderingSerial(t *testing.T) {
	events := collect(t, Request{Model: "mobilenetv2", Platform: "edge", Params: fastPar(1)})
	checkOrdering(t, events)

	var stages, improves, caches int
	sawStage2 := false
	firstStage2 := -1
	lastStage1Start := -1
	for i, e := range events {
		switch e.Kind {
		case "stage":
			stages++
			if e.Stage == "stage2" && firstStage2 < 0 {
				firstStage2 = i
				sawStage2 = true
			}
			if e.Stage == "stage1" && firstStage2 < 0 {
				lastStage1Start = i
			}
		case "improve":
			improves++
		case "cache":
			caches++
			if e.Cache == nil {
				t.Error("cache event without a snapshot")
			}
		}
	}
	if stages < 2 || !sawStage2 {
		t.Errorf("saw %d stage events (stage2: %v), want both stages", stages, sawStage2)
	}
	if improves == 0 {
		t.Error("no improve events streamed")
	}
	if caches == 0 {
		t.Error("no cache snapshots streamed")
	}
	if lastStage1Start < 0 || firstStage2 < lastStage1Start {
		t.Errorf("stage2 start (event %d) precedes stage1 start (event %d)",
			firstStage2, lastStage1Start)
	}
}

// TestHooksEventOrderingPortfolio: with concurrent chains the mutex in Emit
// must still deliver a strictly ordered stream.
func TestHooksEventOrderingPortfolio(t *testing.T) {
	par := fastPar(2)
	par.Chains = 4
	par.Workers = 4
	events := collect(t, Request{Model: "mobilenetv2", Platform: "edge", Params: par})
	checkOrdering(t, events)

	chains := map[int]bool{}
	for _, e := range events {
		if e.Kind == "improve" {
			chains[e.Chain] = true
		}
	}
	if len(chains) < 2 {
		t.Errorf("improvements from %d chain(s), want several with Chains=4", len(chains))
	}
}

func TestHooksCoccoStream(t *testing.T) {
	events := collect(t, Request{Backend: "cocco", Model: "mobilenetv2",
		Platform: "edge", Params: fastPar(1)})
	checkOrdering(t, events)
	for _, e := range events {
		if e.Kind == "stage" && e.Stage != "cocco" {
			t.Errorf("cocco streamed stage %q", e.Stage)
		}
		if e.Backend != "cocco" {
			t.Errorf("event backend = %q, want cocco", e.Backend)
		}
	}
}

// TestHooksCoccoStreamGolden pins a fixed-seed cocco solve's whole event
// stream - every kind, stage, allocator iteration, chain, iteration and
// cost, one JSON event per line - to a committed golden.
func TestHooksCoccoStreamGolden(t *testing.T) {
	par := soma.FastParams()
	par.Seed, par.Beta1 = 1, 2
	events := collect(t, Request{Backend: "cocco", Model: "mobilenetv2",
		Platform: "edge", Params: par})
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	testutil.Golden(t, filepath.Join("testdata", "mobilenetv2-edge-cocco.hooks.golden.jsonl"), got.Bytes())
}

// TestHooksCoccoInfeasible: a cocco solve that finds nothing feasible closes
// its stage with a stage-done event (cost -1) before the error, as a soma
// stage 1 does.
func TestHooksCoccoInfeasible(t *testing.T) {
	cfg := hw.Edge().WithGBuf(4 << 10)
	var kinds []string
	var events []Event
	_, err := Run(context.Background(), Request{Backend: "cocco", Model: "resnet50",
		Platform: "edge", Config: &cfg, Params: fastPar(1)},
		&Hooks{Event: func(e Event) { events = append(events, e) }})
	if !errors.Is(err, soma.ErrNoFeasible) {
		t.Fatalf("err = %v, want ErrNoFeasible", err)
	}
	for _, e := range events {
		kinds = append(kinds, e.Kind)
	}
	if want := []string{"start", "stage", "stage-done", "error"}; !slices.Equal(kinds, want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	if done := events[2]; done.Stage != "cocco" || done.Cost != -1 {
		t.Errorf("stage-done = %+v, want stage cocco, cost -1", done)
	}
}

// TestHooksScenarioComponents: scenario runs tag the composed search and
// every isolated component, composed first (matching payload assembly).
func TestHooksScenarioComponents(t *testing.T) {
	sc, err := workload.Builtin("multi-tenant-cnn")
	if err != nil {
		t.Fatal(err)
	}
	par := soma.FastParams()
	par.Beta1, par.Beta2 = 2, 1
	events := collect(t, Request{Scenario: &sc, Platform: "edge", Params: par})
	checkOrdering(t, events)

	var order []string
	seen := map[string]bool{}
	for _, e := range events {
		if e.Component != "" && !seen[e.Component] {
			seen[e.Component] = true
			order = append(order, e.Component)
		}
	}
	if len(order) != 1+len(sc.Components) {
		t.Fatalf("components streamed: %v, want composed + %d components", order, len(sc.Components))
	}
	if order[0] != "composed" {
		t.Errorf("first component = %q, want composed", order[0])
	}
}

func TestEmitNilSafety(t *testing.T) {
	var h *Hooks
	h.Emit(Event{Kind: "start"}) // must not panic
	(&Hooks{}).Emit(Event{Kind: "start"})
}

// TestHooksCacheEventsReportRunTraffic: on a shared cache warmed by an
// earlier run, a run's "cache" events count its own traffic, not the
// cache's lifetime totals: the last one equals the result's search counters.
// With the Buffer Allocator on, seed 2 has an allocator iteration whose
// stage 1 finds nothing feasible; its lookups must still be reported.
func TestHooksCacheEventsReportRunTraffic(t *testing.T) {
	for _, noAlloc := range []bool{true, false} {
		par := func(seed int64) soma.Params {
			p := fastPar(seed)
			p.Ablate.NoAllocator = noAlloc
			return p
		}
		shared := sim.NewCache(0)
		req := Request{Model: "mobilenetv2", Platform: "edge", Params: par(1), Cache: shared}
		if _, err := Run(context.Background(), req, nil); err != nil {
			t.Fatal(err)
		}
		req.Params = par(2)
		var last *sim.CacheStats
		res, err := Run(context.Background(), req, &Hooks{Event: func(e Event) {
			if e.Kind == "cache" {
				last = e.Cache
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		if last == nil {
			t.Fatalf("noAllocator=%v: no cache event streamed", noAlloc)
		}
		s := res.Search
		if last.Hits != s.CacheHits || last.Misses != s.CacheMisses {
			t.Errorf("noAllocator=%v: last cache event hits/misses %d/%d, result %d/%d",
				noAlloc, last.Hits, last.Misses, s.CacheHits, s.CacheMisses)
		}
		if s.CacheHits == 0 || s.CacheMisses == 0 {
			t.Errorf("noAllocator=%v: second run should both hit the warm cache and miss it: %d/%d",
				noAlloc, s.CacheHits, s.CacheMisses)
		}
	}
}
