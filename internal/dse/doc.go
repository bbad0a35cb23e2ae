// Package dse is the design-space exploration subsystem: it turns the
// hand-rolled sweep loops of the paper's evaluation (Fig. 7's bandwidth x
// buffer heatmap, the objective and seed sweeps, hardware co-design studies)
// into one declarative grid orchestrator on top of engine.Run.
//
// A Sweep declares axes - solver backends, platform presets, parametric
// hardware overrides (DRAM GB/s, GBUF MiB), models or multi-model scenarios,
// batches, objectives, seeds - and Expand crosses them into a deterministic
// point grid. Run executes the grid through an Executor - by default a
// bounded in-process pool, or the cluster's lease dispatcher - with one
// shared evaluation cache (neighboring points on the seed and objective axes
// reuse each other's evaluations), streams per-point progress through
// engine.Hooks, and checkpoints completed rows to a JSONL journal committed
// strictly in point-index order - so an interrupted sweep resumes from its
// prefix without recomputation, and serial, parallel, and resumed runs of
// one spec produce byte-identical journals (rows are Scrubbed of the
// cache counters that depend on warmth and interleaving).
//
// Results are typed report.Result rows plus aggregates: the lowest-cost
// point and Pareto fronts such as cost vs buffer size (the Fig. 7 "how much
// buffer is this cost reduction worth" question).
//
// Every sweep surface routes here: `soma -sweep <file.json>` in the CLI,
// POST /v1/sweeps in the somad daemon (with SSE progress), and the
// internal/exp figure drivers (Fig7, Fig8, ObjectiveSweep, SeedSweep) are
// thin adapters over dse.Run. The spec schema and journal format are
// documented in docs/dse.md.
package dse
