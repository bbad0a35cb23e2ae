package workload

import (
	"fmt"
	"sort"
	"strings"

	"soma/internal/graph"
	"soma/internal/models"
)

// ArrivalMode describes how a scenario's models share the accelerator.
type ArrivalMode string

const (
	// Interleaved lets the scheduler freely interleave the models' tiles:
	// no cross-model ordering constraints, so a bandwidth-bound model's
	// DRAM traffic can hide under a compute-bound model's tiles (the
	// multi-tenant case).
	Interleaved ArrivalMode = "interleaved"
	// Sequential runs the models back to back: every tile of model i
	// precedes every tile of model i+1 (barrier edges), but DRAM transfers
	// still overlap the boundary - the next model's weights may prefetch
	// while the previous one computes. Components run in descending
	// priority weight.
	Sequential ArrivalMode = "sequential"
	// PrefillDecode is the LLM serving pair: exactly two components, a
	// *-prefill model followed by its *-decode sibling, composed
	// sequentially (the decode's KV cache exists only after prefill).
	PrefillDecode ArrivalMode = "prefill+decode"
)

// Valid reports whether the mode is one of the defined arrival modes.
func (m ArrivalMode) Valid() bool {
	switch m {
	case Interleaved, Sequential, PrefillDecode:
		return true
	}
	return false
}

// Component is one model instance inside a scenario.
type Component struct {
	// Name is the instance name, unique within the scenario (defaults to
	// the model name). Composed layer names are prefixed "<Name>/".
	Name string `json:"name,omitempty"`
	// Model is a workload name from the models registry.
	Model string `json:"model"`
	// Batch is the instance's batch size (default 1).
	Batch int `json:"batch,omitempty"`
	// Weight is the priority weight (default 1): sequential arrival runs
	// higher-weight components first, and aggregate scenario metrics
	// weight per-component contributions by it.
	Weight float64 `json:"weight,omitempty"`
}

func (c Component) String() string {
	return fmt.Sprintf("%s(%s,b%d,w%g)", c.Name, c.Model, c.Batch, c.Weight)
}

// Scenario composes N named model graphs into one schedulable workload.
type Scenario struct {
	Name       string      `json:"name"`
	Arrival    ArrivalMode `json:"arrival"`
	Components []Component `json:"components"`
}

// Normalize fills defaults in place: arrival mode interleaved, per-component
// name = model name, batch 1, weight 1. ParseSpec calls it before Validate so
// a minimal spec is complete.
func (s *Scenario) Normalize() {
	if s.Arrival == "" {
		s.Arrival = Interleaved
	}
	for i := range s.Components {
		c := &s.Components[i]
		if c.Name == "" {
			c.Name = c.Model
		}
		if c.Batch == 0 {
			c.Batch = 1
		}
		if c.Weight == 0 {
			c.Weight = 1
		}
	}
}

// Validate checks the scenario against the model registry and the arrival
// mode's structural rules. It assumes Normalize ran (ParseSpec guarantees it;
// hand-built scenarios should call Normalize first).
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: scenario has no name")
	}
	if !s.Arrival.Valid() {
		return fmt.Errorf("workload: scenario %s: unknown arrival mode %q (%s|%s|%s)",
			s.Name, s.Arrival, Interleaved, Sequential, PrefillDecode)
	}
	if len(s.Components) == 0 {
		return fmt.Errorf("workload: scenario %s has no components", s.Name)
	}
	seen := make(map[string]bool, len(s.Components))
	for _, c := range s.Components {
		if c.Name == "" {
			return fmt.Errorf("workload: scenario %s: component with model %q has no name (call Normalize)", s.Name, c.Model)
		}
		if seen[c.Name] {
			return fmt.Errorf("workload: scenario %s: duplicate component name %q", s.Name, c.Name)
		}
		seen[c.Name] = true
		if !models.Known(c.Model) {
			return fmt.Errorf("workload: scenario %s: component %s references unknown model %q (known: %v)",
				s.Name, c.Name, c.Model, models.Names())
		}
		if c.Batch <= 0 {
			return fmt.Errorf("workload: scenario %s: component %s has batch %d", s.Name, c.Name, c.Batch)
		}
		if c.Weight <= 0 {
			return fmt.Errorf("workload: scenario %s: component %s has weight %g", s.Name, c.Name, c.Weight)
		}
	}
	if s.Arrival == PrefillDecode {
		if len(s.Components) != 2 {
			return fmt.Errorf("workload: scenario %s: prefill+decode needs exactly 2 components, got %d",
				s.Name, len(s.Components))
		}
		pre, dec := s.Components[0].Model, s.Components[1].Model
		pb, okP := strings.CutSuffix(pre, "-prefill")
		db, okD := strings.CutSuffix(dec, "-decode")
		if !okP || !okD || pb == "" || pb != db {
			return fmt.Errorf("workload: scenario %s: prefill+decode needs a <base>-prefill then <base>-decode pair, got %q + %q",
				s.Name, pre, dec)
		}
	}
	return nil
}

// Span records one component's layer ownership in the composed graph: the
// contiguous ID range [First, Last] it occupies.
type Span struct {
	Component Component
	First     graph.LayerID
	Last      graph.LayerID
	// Graph is the component's isolated model graph as built during
	// composition, so callers scheduling the components stand-alone (the
	// per-model baselines of an engine.Run scenario request) need not
	// rebuild it.
	Graph *graph.Graph
	// Layers counts the component's compute layers (excluding Inputs).
	Layers int
	// Ops / WeightBytes are the component's accounting sums, preserved
	// verbatim from the isolated model graph.
	Ops         int64
	WeightBytes int64
}

// Placement maps composed-graph layers back to the components that own them.
type Placement struct {
	// Spans lists the components in composition order (which for
	// sequential arrival is descending weight, not spec order).
	Spans []Span
}

// order returns the components in composition order: spec order for
// interleaved and prefill+decode (the pair's order is semantic), descending
// weight (stable) for sequential, where higher-priority models run first.
func (s *Scenario) order() []Component {
	out := append([]Component(nil), s.Components...)
	if s.Arrival == Sequential {
		sort.SliceStable(out, func(a, b int) bool { return out[a].Weight > out[b].Weight })
	}
	return out
}

// Compose builds every component model and merges them into one schedulable
// graph plus the ownership placement. Layer names gain a "<component>/"
// prefix; dependency edges are remapped intra-component; sequential and
// prefill+decode arrival add ordering-only barrier edges (graph.Layer.After)
// from each component's sink layers to the next component's source layers, so
// compute strictly serializes across the boundary while DRAM transfers still
// overlap it. The composed graph passes graph.Validate and its insertion
// order is a valid Computing Order, so the existing two-stage machinery
// explores cross-model DRAM scheduling unchanged.
func (s *Scenario) Compose() (*graph.Graph, *Placement, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	comps := s.order()
	sequential := s.Arrival == Sequential || s.Arrival == PrefillDecode

	var g *graph.Graph
	pl := &Placement{}
	var prevSinks []graph.LayerID
	for _, c := range comps {
		mg, err := models.Build(c.Model, c.Batch)
		if err != nil {
			return nil, nil, fmt.Errorf("workload: scenario %s: %w", s.Name, err)
		}
		if g == nil {
			g = graph.New("scenario:"+s.Name, mg.ElemBytes)
		} else if mg.ElemBytes != g.ElemBytes {
			return nil, nil, fmt.Errorf("workload: scenario %s: component %s has element width %d, scenario uses %d",
				s.Name, c.Name, mg.ElemBytes, g.ElemBytes)
		}
		base := graph.LayerID(g.Len())
		span := Span{Component: c, First: base, Graph: mg}
		for i := range mg.Layers {
			l := mg.Layers[i] // copy
			l.Name = c.Name + "/" + l.Name
			deps := make([]graph.Dep, len(l.Deps))
			for di, d := range l.Deps {
				deps[di] = graph.Dep{Producer: d.Producer + base, Global: d.Global}
			}
			l.Deps = deps
			l.After = nil
			if sequential && l.Kind != graph.Input && sourceLayer(mg, &mg.Layers[i]) {
				l.After = prevSinks
			}
			g.Add(l)
			if l.Kind != graph.Input {
				span.Layers++
				span.Ops += l.Ops
				span.WeightBytes += l.WeightBytes
			}
		}
		span.Last = graph.LayerID(g.Len() - 1)
		pl.Spans = append(pl.Spans, span)
		if sequential {
			prevSinks = prevSinks[:0:0]
			for id := span.First; id <= span.Last; id++ {
				if g.Layer(id).Kind != graph.Input && g.IsOutput(id) {
					prevSinks = append(prevSinks, id)
				}
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, nil, fmt.Errorf("workload: scenario %s: composed graph invalid: %w", s.Name, err)
	}
	return g, pl, nil
}

// sourceLayer reports whether a compute layer reads only Input pseudo-layers
// (the component's entry points, which receive the cross-component barriers;
// every other layer inherits the ordering transitively).
func sourceLayer(g *graph.Graph, l *graph.Layer) bool {
	for _, d := range l.Deps {
		if g.Layer(d.Producer).Kind != graph.Input {
			return false
		}
	}
	return true
}

// TotalBatch sums the component batch sizes (the scenario-level "batch"
// reported in payloads).
func (s *Scenario) TotalBatch() int {
	t := 0
	for _, c := range s.Components {
		t += c.Batch
	}
	return t
}

// TotalWeight sums the component priority weights.
func (s *Scenario) TotalWeight() float64 {
	var t float64
	for _, c := range s.Components {
		t += c.Weight
	}
	return t
}
