package engine

import (
	"bytes"
	"context"
	"errors"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"soma/internal/graph"
	"soma/internal/hw"
	"soma/internal/obs"
	"soma/internal/sim"
	"soma/internal/soma"
	"soma/internal/testutil"
	"soma/internal/workload"
)

// fastPar is the smallest deterministic search the engine tests run.
func fastPar(seed int64) soma.Params {
	p := soma.FastParams()
	p.Seed = seed
	p.Beta1, p.Beta2 = 2, 1
	return p
}

func TestRegistry(t *testing.T) {
	names := Backends()
	if len(names) < 2 {
		t.Fatalf("Backends() = %v, want at least soma and cocco", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Backends() not sorted: %v", names)
		}
	}
	for _, name := range []string{"soma", "cocco"} {
		b, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if b.Name() != name {
			t.Fatalf("Get(%q).Name() = %q", name, b.Name())
		}
	}
	if b, err := Get(""); err != nil || b.Name() != "soma" {
		t.Fatalf("Get(\"\") = %v, %v; want the soma default", b, err)
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("Get(nope) must error")
	}
	infos := List()
	if len(infos) != len(names) {
		t.Fatalf("List() = %d entries, want %d", len(infos), len(names))
	}
	for i, info := range infos {
		if info.Name != names[i] {
			t.Fatalf("List()[%d] = %q, want %q", i, info.Name, names[i])
		}
		if info.Description == "" {
			t.Errorf("backend %q has no description", info.Name)
		}
	}
}

func TestRunUnknownBackend(t *testing.T) {
	_, err := Run(context.Background(), Request{Backend: "nope", Model: "mobilenetv2",
		Platform: "edge", Params: fastPar(1)}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("err = %v, want unknown backend", err)
	}
}

func TestRunUnknownPlatformAndModel(t *testing.T) {
	if _, err := Run(context.Background(), Request{Model: "mobilenetv2",
		Platform: "nope", Params: fastPar(1)}, nil); err == nil {
		t.Fatal("unknown platform must error")
	}
	if _, err := Run(context.Background(), Request{Model: "nope",
		Platform: "edge", Params: fastPar(1)}, nil); err == nil {
		t.Fatal("unknown model must error")
	}
}

func TestScenarioRequestValidation(t *testing.T) {
	sc, err := workload.Builtin("multi-tenant-cnn")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), Request{Backend: "cocco", Scenario: &sc,
		Platform: "edge", Params: fastPar(1)}, nil); err == nil {
		t.Fatal("scenario on cocco must error")
	}
	if _, err := Run(context.Background(), Request{Scenario: &sc, Model: "resnet50",
		Platform: "edge", Params: fastPar(1)}, nil); err == nil {
		t.Fatal("scenario plus model must error")
	}
}

// goldenPath locates the CLI's golden payloads; the same files guard the
// `soma -json` path in CI, so this test pins engine.Run to those bytes.
func goldenPath(name string) string {
	return filepath.Join("..", "..", "cmd", "soma", "testdata", name)
}

// TestGoldenSingleModel pins the engine's fixed-seed payloads - one per
// backend - to the pre-refactor `soma -json` goldens, byte for byte.
func TestGoldenSingleModel(t *testing.T) {
	cases := []struct {
		backend, golden string
		par             soma.Params
	}{
		{"soma", "mobilenetv2-edge.golden.json", func() soma.Params {
			p := fastPar(1)
			p.Stage2MaxIters = 1 << 20 // the CLI's -beta2 override side effect
			return p
		}()},
		{"cocco", "mobilenetv2-edge-cocco.golden.json", func() soma.Params {
			p := soma.FastParams()
			p.Seed = 1
			p.Beta1 = 2
			return p
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.backend, func(t *testing.T) {
			res, err := Run(context.Background(), Request{Backend: tc.backend,
				Model: "mobilenetv2", Batch: 1, Platform: "edge",
				Objective: soma.EDP(), Params: tc.par}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := res.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			testutil.Golden(t, goldenPath(tc.golden), got.Bytes())
		})
	}
}

// TestCoccoRunsOneChain: the baseline is one chain whatever the request's
// portfolio knobs say, so a Chains 4, Workers 2 request gives the payload
// of the plain one byte for byte.
func TestCoccoRunsOneChain(t *testing.T) {
	solve := func(chains, workers int) []byte {
		par := fastPar(1)
		par.Chains, par.Workers = chains, workers
		res, err := Run(context.Background(), Request{Backend: "cocco",
			Model: "mobilenetv2", Platform: "edge", Params: par}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := res.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if !bytes.Equal(solve(4, 2), solve(0, 0)) {
		t.Error("a Chains 4, Workers 2 cocco request diverged from the Chains 0 one")
	}
}

// TestGoldenScenario pins the engine's composed-scenario payload to the
// pre-refactor golden.
func TestGoldenScenario(t *testing.T) {
	sc, err := workload.Builtin("gpt2s-prefill-decode")
	if err != nil {
		t.Fatal(err)
	}
	par := soma.FastParams()
	par.Seed = 1
	par.Beta1 = 2
	res, err := Run(context.Background(), Request{Scenario: &sc, Platform: "edge",
		Objective: soma.EDP(), Params: par}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := res.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	testutil.Golden(t, goldenPath("scenario-gpt2s-prefill-decode.golden.json"), got.Bytes())
}

// TestHooksDoNotPerturbResult: a run with a hooks stream installed must be
// byte-identical to the same run without one (events observe, never steer).
func TestHooksDoNotPerturbResult(t *testing.T) {
	req := Request{Model: "mobilenetv2", Platform: "edge", Params: fastPar(11)}
	plain, err := Run(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	hooked, err := Run(context.Background(), req, &Hooks{Event: func(Event) {}})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := plain.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := hooked.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("hooks changed the result payload")
	}
}

// TestTelemetryDoesNotPerturbResult mirrors TestHooksDoNotPerturbResult for
// the observability layer: a run with a full obs bundle attached must be
// byte-identical to the bare run once the (intentionally obs-only,
// wall-clock) Telemetry section is stripped - and the bundle must actually
// have observed the search.
func TestTelemetryDoesNotPerturbResult(t *testing.T) {
	req := Request{Model: "mobilenetv2", Platform: "edge", Params: fastPar(11)}
	plain, err := Run(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	req.Obs = o
	observed, err := Run(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if observed.Telemetry == nil || observed.Telemetry.SolveWallMS <= 0 {
		t.Fatal("observed run carries no Telemetry section")
	}
	observed.Telemetry = nil
	var a, b bytes.Buffer
	if err := plain.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := observed.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("telemetry changed the result payload")
	}

	// The registry must hold populated sa/sim/engine families...
	if o.Reg.Counter("soma_sa_moves_proposed_total", "", "stage", "stage1").Value() <= 0 {
		t.Error("counter soma_sa_moves_proposed_total{stage=stage1} not populated")
	}
	for _, name := range []string{"sim_inc_proposals_total", "soma_alloc_iters_total"} {
		if o.Reg.Counter(name, "").Value() <= 0 {
			t.Errorf("counter %s not populated", name)
		}
	}
	if o.Reg.Counter("engine_solves_total", "", "backend", "soma", "outcome", "ok").Value() != 1 {
		t.Error("engine_solves_total{soma,ok} != 1")
	}
	// ...and the tracer must hold stage spans on the solve track.
	var trace bytes.Buffer
	if err := o.Tracer.WriteJSON(&trace); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"solve"`, `"stage1"`, `"stage2"`, "best_cost/stage1"} {
		if !strings.Contains(trace.String(), want) {
			t.Errorf("trace missing %s", want)
		}
	}
}

// slowRequest is a search big enough to be mid-chain when the test cancels
// it (paper-scale iteration budgets on a deep model).
func slowRequest(backend string) Request {
	return Request{Backend: backend, Model: "resnet101", Batch: 16, Platform: "cloud",
		Params: soma.PaperParams()}
}

// TestSolveCancellation: canceling the context mid-chain must return
// context.Canceled promptly on both backends and leak no goroutines (the
// suite runs under -race in CI, which also catches unsynchronized hook
// plumbing).
func TestSolveCancellation(t *testing.T) {
	for _, backend := range []string{"soma", "cocco"} {
		t.Run(backend, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			go func() {
				_, err := Run(ctx, slowRequest(backend), nil)
				errc <- err
			}()
			time.Sleep(100 * time.Millisecond)
			cancel()
			select {
			case err := <-errc:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("cancellation did not land within 30s")
			}
			// Portfolio chains and the run goroutine must all unwind.
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(20 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("goroutines leaked: %d before, %d after cancel", before, n)
			}
		})
	}
}

// TestSharedCacheConfigIsolation: two shared-cache requests naming the same
// (model, batch, platform) but carrying different hardware overrides must
// not reuse each other's evaluations - each must match its private-cache
// run exactly.
func TestSharedCacheConfigIsolation(t *testing.T) {
	fast, err := hw.Platform("edge")
	if err != nil {
		t.Fatal(err)
	}
	fast = fast.WithDRAM(4 * fast.DRAMBandwidth)
	slow, err := hw.Platform("edge")
	if err != nil {
		t.Fatal(err)
	}
	shared := sim.NewCache(0)
	ctx := context.Background()
	for _, cfg := range []*hw.Config{&slow, &fast} {
		req := Request{Model: "mobilenetv2", Platform: "edge", Config: cfg,
			Params: fastPar(9)}
		want, err := Run(ctx, req, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Cache = shared
		got, err := Run(ctx, req, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost != want.Cost || got.ScheduleSHA256 != want.ScheduleSHA256 {
			t.Errorf("DRAM %.0f GB/s: shared-cache run diverged from private-cache run (cost %v vs %v)",
				cfg.DRAMBandwidth, got.Cost, want.Cost)
		}
	}
}

// TestGraphRequest: an explicit graph takes the place of a registry model.
func TestGraphRequest(t *testing.T) {
	viaModel, err := Run(context.Background(), Request{Model: "mobilenetv2",
		Platform: "edge", Params: fastPar(3)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := viaModel.Raw.Graph
	viaGraph, err := Run(context.Background(), Request{Graph: g, Model: "mobilenetv2",
		Platform: "edge", Params: fastPar(3)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if viaGraph.Cost != viaModel.Cost || viaGraph.ScheduleSHA256 != viaModel.ScheduleSHA256 {
		t.Error("explicit-graph request diverged from the registry-model request")
	}
}

// TestSingleLayerGraph: a graph of one compute layer leaves the cut
// operators no position to cut at; both backends still solve it.
func TestSingleLayerGraph(t *testing.T) {
	g := graph.New("one-conv", 1)
	sh := graph.Shape{N: 1, C: 16, H: 28, W: 28}
	in := g.Add(graph.Layer{Name: "in", Kind: graph.Input, Out: sh})
	g.Add(graph.Layer{Name: "conv", Kind: graph.Conv, Deps: []graph.Dep{{Producer: in}},
		Out: sh, K: graph.Kernel{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1},
		WeightBytes: 16 * 16 * 9, Ops: 2 * 16 * 16 * 9 * 28 * 28})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"soma", "cocco"} {
		res, err := Run(context.Background(), Request{Backend: backend, Graph: g,
			Platform: "edge", Params: fastPar(1)}, nil)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if !(res.Cost > 0) || math.IsInf(res.Cost, 1) {
			t.Errorf("%s: cost %g", backend, res.Cost)
		}
	}
}
