// Package sim is the paper's accurate evaluator (Sec. V-D): it replays a
// parsed schedule on two serial resources - the DRAM channel, which executes
// the DRAM tensors in DRAM Tensor Order, and the compute pipeline, which
// executes the tiles in sequence - enforcing exactly the start conditions
// the paper defines:
//
//   - a DRAM tensor starts when its predecessor in the DRAM Tensor Order has
//     finished; loads additionally wait until every tile before their Living
//     Duration Start has completed (and, for reloaded fmaps, until the
//     producer's stores finished); stores wait for their producing tile;
//   - a computing tile starts when all its loads have finished and every
//     store with End <= tile has finished.
//
// The evaluator reports latency, the energy breakdown (core array vs DRAM),
// both resources' busy times, buffer occupancy statistics and the
// theoretical maximum utilization bound used as Fig. 6's blue diamonds.
//
// One merge loop implements these conditions. Evaluate runs it once from
// event zero; Incremental, the stage-2 evaluator, keeps one schedule live
// and after each DLSA move resumes the same loop from a checkpoint of its
// accepted run, stopping a Start/End move's run once its times have
// rejoined the accepted ones.
//
// Three layers keep the annealer's evaluation volume tractable:
//
//   - TileCosts (PrecomputeTileCosts) caches the compute-side cost of every
//     tile; the DLSA exploration stage never changes tiles, so thousands of
//     candidate schedules share one precomputation.
//   - Arena evaluates encodings under the double-buffer DLSA without
//     building a schedule: stage 1 of SoMa and the Cocco baseline score
//     their candidates with it. Under that DLSA the merge is one pass over
//     the tiles in seq order (core.Arena's walk), with FLG plans and tile
//     costs from a core.FLGMemo. Its Metrics equal Evaluate's on the
//     parsed schedule bit for bit.
//   - Cache memoizes entire evaluations keyed by the schedule's canonical
//     encoding (core.Encoding/core.Schedule CanonicalKey) plus the buffer
//     budget, with hit/miss counters surfaced through the run reports. The
//     portfolio chains of the parallel search engine share one Cache.
package sim
