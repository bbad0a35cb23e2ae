// Package cluster shards sweep execution across somad worker nodes.
//
// Topology: the coordinator is a dse.Executor. dse.Run owns the sweep -
// journal resume, the in-order commit, progress events, rung driving and the
// aggregates - and hands each batch of points (a whole grid, or one adaptive
// rung) to the Executor, which deterministically partitions it into leases
// and dispatches them over HTTP to N workers (each a somad started with
// -worker). Rows come back through dse's deliver callback. Because every row
// is a pure function of (spec, point index, fidelity) - the engine backends
// are seed-deterministic and cache sharing never changes results - a sharded
// journal is byte-identical to the serial dse.Run journal for the same spec,
// including after worker deaths and lease reassignment.
//
// Robustness: leases carry per-attempt timeouts with exponential backoff and
// jitter; a heartbeat loop detects dead workers and cancels their in-flight
// leases; reassignment is at-least-once, and dse's commit keeps the first
// delivery of each point (repeats count as cluster_points_deduped_total).
// Leases no worker can take run on the batch's local pool, bounded by the
// spec's workers; with zero workers reachable the whole batch does, so a
// cluster flag never makes a sweep fail that would have succeeded
// single-process.
//
// Caching: each worker evaluates on its somad process's lifetime
// sim.Cache, the one that process's own jobs use, and the coordinator's
// local fallback uses the sweep's dse.Options.Cache. No cache is shared
// over the network: on the Fig. 7 grid a coordinator-hosted tier answered
// under 1% of worker lookups and its round trips made the sharded sweep
// about 12x slower.
package cluster
