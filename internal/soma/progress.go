package soma

import (
	"soma/internal/sa"
	"soma/internal/sim"
)

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
// stage-tagged Progress event, a best-cost counter sample when tracing, and
// the registry's soma_sa_best_cost and soma_sa_temperature gauges (the cost,
// and cfg's cooling-schedule temperature at the improving move). It returns
// nil when nothing observes, so the annealer skips callback plumbing
// entirely.
func (e *Explorer) improveHook(stage string, cfg sa.Config) func(chain, iter int, cost float64) {
	if e.Progress == nil && e.Track == nil && e.Reg == nil {
		return nil
	}
	bestCost := e.Reg.Gauge("soma_sa_best_cost",
		"Best cost seen, sampled at each improvement.", "stage", stage)
	temp := e.Reg.Gauge("soma_sa_temperature",
		"Cooling-schedule temperature at the last improvement.", "stage", stage)
	return func(chain, iter int, cost float64) {
		if e.Progress != nil {
			e.Progress(Progress{Stage: stage, Kind: "improve", AllocIter: e.allocIter,
				Chain: chain, Iter: iter, Cost: cost})
		}
		e.Track.Counter("best_cost/"+stage, cost)
		bestCost.Set(cost)
		temp.Set(sa.Temperature(cfg.T0, cfg.Alpha, iter, cfg.Iters))
	}
}

// addSAStats adds a finished stage's move counts (its portfolio's totals,
// sa.PortfolioStats.Total) to the registry's soma_sa_* counters.
func (e *Explorer) addSAStats(stage string, st sa.Stats) {
	e.Reg.Counter("soma_sa_moves_proposed_total",
		"Annealing moves proposed (including unproductive draws).", "stage", stage).
		Add(int64(st.Iterations))
	e.Reg.Counter("soma_sa_moves_accepted_total",
		"Annealing moves accepted.", "stage", stage).Add(int64(st.Accepted))
	e.Reg.Counter("soma_sa_moves_rejected_total",
		"Annealing moves rejected by the acceptance rule.", "stage", stage).
		Add(int64(st.Rejected))
	e.Reg.Counter("soma_sa_improvements_total",
		"Incumbent (best-so-far) improvements.", "stage", stage).Add(int64(st.Improved))
}
