package models

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"soma/internal/graph"
)

func TestResNet50Shape(t *testing.T) {
	g := ResNet50(1)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// ResNet-50 at batch 1: ~4.1 GMACs = ~8.2 GOPs (+ small vector work).
	gops := float64(g.TotalOps()) / 1e9
	if gops < 7.5 || gops > 9.5 {
		t.Fatalf("ResNet-50 ops = %.2f GOPs, want ~8.2", gops)
	}
	// ~25.5 M parameters at INT8.
	mb := float64(g.TotalWeightBytes()) / (1 << 20)
	if mb < 22 || mb > 28 {
		t.Fatalf("ResNet-50 weights = %.1f MB, want ~24", mb)
	}
	// 53 convolutions + 1 FC.
	if n := g.Stats()["conv"]; n != 53 {
		t.Fatalf("ResNet-50 convs = %d, want 53", n)
	}
	if n := g.Stats()["eltwise"]; n != 16 {
		t.Fatalf("ResNet-50 adds = %d, want 16", n)
	}
}

func TestResNet50BatchScaling(t *testing.T) {
	g1, g4 := ResNet50(1), ResNet50(4)
	if g4.TotalOps() != 4*g1.TotalOps() {
		t.Fatalf("ops must scale with batch: %d vs %d", g4.TotalOps(), g1.TotalOps())
	}
	if g4.TotalWeightBytes() != g1.TotalWeightBytes() {
		t.Fatal("weights must not scale with batch")
	}
}

func TestResNet101Deeper(t *testing.T) {
	g50, g101 := ResNet50(1), ResNet101(1)
	if g101.Len() <= g50.Len() {
		t.Fatal("ResNet-101 must have more layers than ResNet-50")
	}
	// ~7.8 GMACs = ~15.7 GOPs.
	gops := float64(g101.TotalOps()) / 1e9
	if gops < 14 || gops > 18 {
		t.Fatalf("ResNet-101 ops = %.2f GOPs, want ~15.7", gops)
	}
	if n := g101.Stats()["conv"]; n != 104 {
		t.Fatalf("ResNet-101 convs = %d, want 104", n)
	}
}

func TestInceptionResNetV1(t *testing.T) {
	g := InceptionResNetV1(1)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	st := g.Stats()
	if st["concat"] < 20 {
		t.Fatalf("expected many concats, got %d", st["concat"])
	}
	if st["eltwise"] != 20 { // 5 A + 10 B + 5 C residual adds
		t.Fatalf("residual adds = %d, want 20", st["eltwise"])
	}
	if g.TotalOps() <= 0 || g.TotalWeightBytes() <= 0 {
		t.Fatal("accounting must be positive")
	}
	// Wider than ResNet: some layer has >2 consumers of one tensor.
	wide := 0
	for _, id := range g.ComputeLayers() {
		if len(g.Consumers(id)) >= 3 {
			wide++
		}
	}
	if wide == 0 {
		t.Fatal("inception should contain wide fan-out")
	}
}

func TestRandWireDeterminismAndSeedVariation(t *testing.T) {
	a, b := RandWire(1), RandWire(1)
	if !reflect.DeepEqual(a.Layers, b.Layers) {
		t.Fatal("RandWire must be deterministic for the default seed")
	}
	c := RandWireSeeded(1, 1234)
	if reflect.DeepEqual(a.Layers, c.Layers) {
		t.Fatal("different seeds should rewire the graph")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("seeded graph invalid: %v", err)
	}
}

func TestGPT2PrefillAccounting(t *testing.T) {
	cfg := GPT2Small()
	g := GPT2Prefill(cfg, 1)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// GPT-2 Small: ~124 M params (INT8 bytes) +/- embedding.
	mb := float64(g.TotalWeightBytes()) / (1 << 20)
	if mb < 90 || mb > 140 {
		t.Fatalf("GPT-2 Small weights = %.1f MB, want ~120", mb)
	}
	// Attention edges must be global on the K/V operand.
	globals := 0
	for _, id := range g.ComputeLayers() {
		for _, d := range g.Layer(id).Deps {
			if d.Global {
				globals++
			}
		}
	}
	if globals < 2*cfg.Layers {
		t.Fatalf("expected >= %d global edges, got %d", 2*cfg.Layers, globals)
	}
}

func TestGPT2DecodeIsBandwidthBound(t *testing.T) {
	cfg := GPT2Small()
	pre := GPT2Prefill(cfg, 1)
	dec := GPT2Decode(cfg, 1)
	// Decode computes ~1/SeqLen of the prefill work but reads the same
	// weights: compute density must collapse (paper observation 1).
	preDensity := float64(pre.TotalOps()) / float64(pre.TotalWeightBytes())
	decDensity := float64(dec.TotalOps()) / float64(dec.TotalWeightBytes())
	if decDensity > preDensity/50 {
		t.Fatalf("decode density %.2f vs prefill %.2f: not bandwidth bound", decDensity, preDensity)
	}
}

func TestGPT2DecodeKVCacheGrowsWithBatch(t *testing.T) {
	cfg := GPT2Small()
	w1 := GPT2Decode(cfg, 1).TotalWeightBytes()
	w16 := GPT2Decode(cfg, 16).TotalWeightBytes()
	if w16 <= w1 {
		t.Fatal("KV cache bytes must grow with batch")
	}
	// Static weights stay constant; the delta is exactly the KV cache.
	perSample := float64(w16-w1) / 15
	wantKV := float64(2 * cfg.Layers * cfg.SeqLen * cfg.DModel) // K+V per sample
	if perSample < 0.9*wantKV || perSample > 1.1*wantKV {
		t.Fatalf("KV growth per sample = %.0f, want ~%.0f", perSample, wantKV)
	}
}

func TestGPT2XLBiggerThanSmall(t *testing.T) {
	s := GPT2Prefill(GPT2Small(), 1)
	xl := GPT2Prefill(GPT2XL(), 1)
	if xl.TotalWeightBytes() < 10*s.TotalWeightBytes() {
		t.Fatalf("XL weights %.0fMB should dwarf Small %.0fMB",
			float64(xl.TotalWeightBytes())/(1<<20), float64(s.TotalWeightBytes())/(1<<20))
	}
}

func TestTransformerLarge(t *testing.T) {
	g := TransformerLarge(1)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	st := g.Stats()
	if st["matmul"] != 12 { // qk + av per encoder layer
		t.Fatalf("matmuls = %d, want 12", st["matmul"])
	}
	if st["softmax"] != 6 {
		t.Fatalf("softmaxes = %d, want 6", st["softmax"])
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 11 {
		t.Fatalf("registry size = %d, want 11: %v", len(names), names)
	}
	// Scenario specs reference these names: the listing must be sorted and
	// identical on every call, not subject to map iteration order.
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	for i := 0; i < 5; i++ {
		if !reflect.DeepEqual(Names(), names) {
			t.Fatal("Names() not deterministic across calls")
		}
	}
	for _, n := range names {
		g, err := Build(n, 1)
		if err != nil {
			t.Fatalf("Build(%s): %v", n, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", n, err)
		}
		if !g.IsValidOrder(g.ComputeLayers()) {
			t.Fatalf("%s: topo order invalid", n)
		}
	}
	if _, err := Build("nope", 1); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("unknown model must error, got %v", err)
	}
	if _, err := Build("resnet50", 0); err == nil {
		t.Fatal("zero batch must error")
	}
}

func TestAllModelsHaveConsistentLocalEdges(t *testing.T) {
	for _, n := range Names() {
		g, _ := Build(n, 2)
		for _, id := range g.ComputeLayers() {
			l := g.Layer(id)
			for _, d := range l.Deps {
				p := g.Layer(d.Producer)
				if d.Global || l.Kind == graph.Concat {
					continue
				}
				if p.Out.N != l.Out.N {
					t.Fatalf("%s: %s->%s batch mismatch", n, p.Name, l.Name)
				}
			}
		}
	}
}
