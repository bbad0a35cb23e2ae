package workload

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/graph"
	"soma/internal/hw"
	"soma/internal/models"
	"soma/internal/sim"
)

func TestBuiltinLibrary(t *testing.T) {
	names := BuiltinNames()
	if len(names) < 3 {
		t.Fatalf("want at least 3 built-in scenarios, got %v", names)
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("BuiltinNames not sorted: %v", names)
	}
	for _, want := range []string{"multi-tenant-cnn", "gpt2s-prefill-decode", "vision-llm-mix"} {
		if _, err := Builtin(want); err != nil {
			t.Fatalf("Builtin(%s): %v", want, err)
		}
	}
	if len(Builtins()) != len(names) {
		t.Fatalf("Builtins/BuiltinNames length mismatch")
	}
	if _, err := Builtin("no-such-scenario"); err == nil {
		t.Fatal("unknown builtin must fail")
	}
}

// TestComposeValidatesAndPreservesOwnership: the composed graph passes
// graph.Validate, component spans are contiguous and cover the graph, and
// each span's layer/op/weight accounting matches the isolated model exactly.
func TestComposeValidatesAndPreservesOwnership(t *testing.T) {
	for _, name := range BuiltinNames() {
		sc, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		g, pl, err := sc.Compose()
		if err != nil {
			t.Fatalf("%s: Compose: %v", name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: composed graph invalid: %v", name, err)
		}
		if len(pl.Spans) != len(sc.Components) {
			t.Fatalf("%s: %d spans for %d components", name, len(pl.Spans), len(sc.Components))
		}
		next := graph.LayerID(0)
		for _, span := range pl.Spans {
			if span.First != next {
				t.Fatalf("%s: span %s starts at %d, want %d", name, span.Component.Name, span.First, next)
			}
			next = span.Last + 1
			mg, err := models.Build(span.Component.Model, span.Component.Batch)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := span.Layers, len(mg.ComputeLayers()); got != want {
				t.Fatalf("%s/%s: %d compute layers, want %d", name, span.Component.Name, got, want)
			}
			if span.Ops != mg.TotalOps() || span.WeightBytes != mg.TotalWeightBytes() {
				t.Fatalf("%s/%s: accounting drifted under composition", name, span.Component.Name)
			}
			prefix := span.Component.Name + "/"
			for id := span.First; id <= span.Last; id++ {
				if !strings.HasPrefix(g.Layer(id).Name, prefix) {
					t.Fatalf("%s: layer %d named %q, want prefix %q", name, id, g.Layer(id).Name, prefix)
				}
			}
		}
		if int(next) != g.Len() {
			t.Fatalf("%s: spans cover %d layers, graph has %d", name, next, g.Len())
		}
	}
}

// inSpan reports whether layer id belongs to the component of span s.
func inSpan(s Span, id graph.LayerID) bool { return id >= s.First && id <= s.Last }

// TestSequentialBarriers: sequential arrival orders components by descending
// weight and serializes them with ordering-only barrier edges that the
// Computing Order legality check enforces.
func TestSequentialBarriers(t *testing.T) {
	sc, err := Builtin("sequential-cnn-pair")
	if err != nil {
		t.Fatal(err)
	}
	g, pl, err := sc.Compose()
	if err != nil {
		t.Fatal(err)
	}
	// resnet has weight 2, mobile weight 1: resnet must come first.
	if pl.Spans[0].Component.Name != "resnet" || pl.Spans[1].Component.Name != "mobile" {
		t.Fatalf("sequential arrival must order by descending weight, got %v", pl.Spans)
	}
	// The second component's source layers carry barriers on the first
	// component's sinks; barriers never appear inside the first component.
	var barriers int
	for id := pl.Spans[1].First; id <= pl.Spans[1].Last; id++ {
		for _, a := range g.Layer(id).After {
			barriers++
			if !inSpan(pl.Spans[0], a) {
				t.Fatalf("barrier target %d outside the first component", a)
			}
			if !g.IsOutput(a) {
				t.Fatalf("barrier target %d is not a sink of the first component", a)
			}
		}
	}
	if barriers == 0 {
		t.Fatal("sequential composition produced no barrier edges")
	}
	for id := pl.Spans[0].First; id <= pl.Spans[0].Last; id++ {
		if len(g.Layer(id).After) != 0 {
			t.Fatalf("first component layer %d has barriers", id)
		}
	}

	// Moving any second-component layer before the first component's
	// layers violates the barrier: the order must be rejected.
	ord := g.ComputeLayers()
	if !g.IsValidOrder(ord) {
		t.Fatal("insertion order must be a valid Computing Order")
	}
	swapped := append([]graph.LayerID(nil), ord...)
	// Find the first compute layer of component 1 and move it to front.
	for i, id := range swapped {
		if inSpan(pl.Spans[1], id) {
			copy(swapped[1:i+1], swapped[:i])
			swapped[0] = id
			break
		}
	}
	if g.IsValidOrder(swapped) {
		t.Fatal("order interleaving across a sequential barrier must be invalid")
	}

	// Interleaved composition of the same components has no barriers and
	// accepts the same interleaving.
	il := sc
	il.Name = "interleaved-pair"
	il.Arrival = Interleaved
	gi, pli, err := il.Compose()
	if err != nil {
		t.Fatal(err)
	}
	for i := range gi.Layers {
		if len(gi.Layers[i].After) != 0 {
			t.Fatal("interleaved composition must not add barriers")
		}
	}
	ordI := gi.ComputeLayers()
	for i, id := range ordI {
		if inSpan(pli.Spans[1], id) {
			copy(ordI[1:i+1], ordI[:i])
			ordI[0] = id
			break
		}
	}
	if !gi.IsValidOrder(ordI) {
		t.Fatal("interleaved composition must allow cross-model interleaving")
	}
}

// TestComposedGraphSchedulable: the composed graph of a sequential scenario
// parses and evaluates through the ordinary pipeline.
func TestComposedGraphSchedulable(t *testing.T) {
	sc, err := Builtin("sequential-cnn-pair")
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := sc.Compose()
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Parse(g, core.DefaultEncoding(g, 1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Evaluate(s, coresched.New(hw.Edge()), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.LatencyNS <= 0 || m.TotalDRAMBytes <= 0 {
		t.Fatalf("degenerate metrics for composed graph: %+v", m)
	}
}

func TestValidateErrors(t *testing.T) {
	mk := func(mut func(*Scenario)) error {
		s := Scenario{Name: "x", Arrival: Interleaved, Components: []Component{
			{Name: "a", Model: "resnet50", Batch: 1, Weight: 1},
			{Name: "b", Model: "mobilenetv2", Batch: 1, Weight: 1},
		}}
		mut(&s)
		return s.Validate()
	}
	cases := map[string]func(*Scenario){
		"no name":        func(s *Scenario) { s.Name = "" },
		"bad arrival":    func(s *Scenario) { s.Arrival = "fifo" },
		"no components":  func(s *Scenario) { s.Components = nil },
		"dup names":      func(s *Scenario) { s.Components[1].Name = "a" },
		"unknown model":  func(s *Scenario) { s.Components[0].Model = "alexnet" },
		"zero batch":     func(s *Scenario) { s.Components[0].Batch = 0 },
		"negative batch": func(s *Scenario) { s.Components[0].Batch = -4 },
		"zero weight":    func(s *Scenario) { s.Components[0].Weight = 0 },
		"pd cardinality": func(s *Scenario) { s.Arrival = PrefillDecode },
		"pd mismatch": func(s *Scenario) {
			s.Arrival = PrefillDecode
			s.Components = []Component{
				{Name: "p", Model: "gpt2s-prefill", Batch: 1, Weight: 1},
				{Name: "d", Model: "gpt2xl-decode", Batch: 1, Weight: 1},
			}
		},
	}
	for name, mut := range cases {
		if err := mk(mut); err == nil {
			t.Errorf("%s: Validate accepted an invalid scenario", name)
		}
	}
	if err := mk(func(s *Scenario) {}); err != nil {
		t.Fatalf("baseline scenario must validate: %v", err)
	}
	// A well-formed prefill+decode pair with differing batches is legal
	// (prefill one request, decode a serving batch).
	pd := Scenario{Name: "pd", Arrival: PrefillDecode, Components: []Component{
		{Name: "p", Model: "gpt2s-prefill", Batch: 1, Weight: 1},
		{Name: "d", Model: "gpt2s-decode", Batch: 8, Weight: 1},
	}}
	if err := pd.Validate(); err != nil {
		t.Fatalf("prefill+decode pair must validate: %v", err)
	}
}

func TestNormalizeDefaults(t *testing.T) {
	s := Scenario{Name: "d", Components: []Component{{Model: "resnet50"}}}
	s.Normalize()
	want := Component{Name: "resnet50", Model: "resnet50", Batch: 1, Weight: 1}
	if !reflect.DeepEqual(s.Components[0], want) {
		t.Fatalf("Normalize got %+v, want %+v", s.Components[0], want)
	}
	if s.Arrival != Interleaved {
		t.Fatalf("default arrival %q, want %q", s.Arrival, Interleaved)
	}
	if s.TotalBatch() != 1 || s.TotalWeight() != 1 {
		t.Fatalf("totals wrong: batch %d weight %g", s.TotalBatch(), s.TotalWeight())
	}
}
