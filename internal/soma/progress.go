package soma

import "soma/internal/sim"

// Progress is one solver progress callback delivered to Explorer.Progress.
// Every AnnealLFA search reports under its stage label, so the Cocco
// baseline, which runs on stage 1's chain, reports Stage "cocco". The
// solver reports three kinds of observations:
//
//   - "start": an annealing stage is about to run (Stage, AllocIter, Budget)
//   - "improve": one portfolio chain improved its incumbent (Chain, Iter,
//     Cost); chains run concurrently, so improve callbacks may arrive from
//     multiple goroutines interleaved
//   - "done": the stage finished with its final best Cost (+Inf when
//     nothing it visited was feasible) and, with a Cache, the run's cache
//     traffic so far
//
// Callbacks observe the search only - they never influence the explored
// space or the returned result, so a fixed seed yields byte-identical
// results with or without a Progress hook installed.
type Progress struct {
	// Stage is "stage1", "stage2" or "cocco".
	Stage string
	// Kind is "start", "improve" or "done".
	Kind string
	// AllocIter is the 1-based Buffer Allocator iteration the stage runs
	// under (0 when a stage is invoked outside the allocator loop).
	AllocIter int
	// Budget is the stage-1 buffer budget in bytes (start events only).
	Budget int64
	// Chain / Iter / Cost locate an improvement: portfolio chain index,
	// iteration within the chain, and the chain's new best cost.
	Chain int
	Iter  int
	Cost  float64
	// Cache is the growth of the explorer's evaluation-cache counters since
	// RunContext started ("done" events only, nil without a Cache); the
	// Result's Cache is the same difference taken at the end of the run.
	Cache *sim.CacheStats
}

// notify delivers a progress event if a hook is installed.
func (e *Explorer) notify(p Progress) {
	if e.Progress == nil {
		return
	}
	if p.Kind == "done" && e.Cache != nil {
		st := e.cacheTraffic()
		p.Cache = &st
	}
	e.Progress(p)
}

// improveHook adapts the portfolio's per-chain improvement callback to a
// stage-tagged Progress event (and, when tracing, a best-cost counter
// sample); it returns nil when no observer is installed so the annealer
// skips callback plumbing entirely.
func (e *Explorer) improveHook(stage string) func(chain, iter int, cost float64) {
	if e.Progress == nil && e.Track == nil {
		return nil
	}
	return func(chain, iter int, cost float64) {
		if e.Progress != nil {
			e.Progress(Progress{Stage: stage, Kind: "improve", AllocIter: e.allocIter,
				Chain: chain, Iter: iter, Cost: cost})
		}
		e.Track.Counter("best_cost/"+stage, cost)
	}
}
