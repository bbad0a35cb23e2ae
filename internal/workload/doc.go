// Package workload is the multi-model scenario composition engine: it
// composes N named model graphs (each with its own batch, priority weight and
// arrival mode) into a single schedulable graph.Graph, so the existing
// two-stage SA/portfolio machinery optimizes cross-model DRAM communication
// scheduling unchanged - multi-tenant CNN mixes, LLM prefill+decode pairs,
// and vision+LLM combinations all become ordinary points of the scheduling
// space.
//
// A Scenario is declared either in Go or as a JSON spec (ParseSpec /
// Scenario.MarshalSpec, lossless round-trip; schema in docs/workloads.md).
// Compose merges the component graphs with per-component name prefixes and -
// for sequential and prefill+decode arrival - ordering-only barrier edges
// (graph.Layer.After) between consecutive components: compute strictly
// serializes across the boundary while DRAM transfers still overlap it, which
// is exactly the cross-model freedom the paper's DRAM-aware notation exposes.
// The returned Placement preserves per-model layer ownership for attribution
// and reporting.
//
// A small library of built-in scenarios ships with the package (Builtin /
// Builtins / BuiltinNames); the soma CLI's -scenario flag, dse sweeps and the
// somad /v1/scenarios endpoint all resolve names through it.
package workload
