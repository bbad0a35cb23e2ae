// Package soma is the end-to-end scheduling framework of Sec. V: a Buffer
// Allocator drives repeated two-stage explorations - stage 1 anneals the
// Layer-Fusion-related Attributes under the classical double-buffer DLSA,
// stage 2 freezes the LFA and anneals the DRAM Tensor Order and Living
// Durations - splitting the GBUF between the two buffer-hungry paradigms
// until the combined Energy^n x Delay^m cost stops improving.
package soma

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/graph"
	"soma/internal/hw"
	"soma/internal/obs"
	"soma/internal/sa"
	"soma/internal/sim"
)

// Objective is the optimization goal Energy^N x Delay^M.
type Objective struct{ N, M float64 }

// EDP is the paper's default objective (n = m = 1).
func EDP() Objective { return Objective{N: 1, M: 1} }

// Params are the search hyper-parameters (framework configuration input).
type Params struct {
	// Beta1 scales stage-1 iterations: N1 = Beta1 x #layers (paper: 100).
	Beta1 int
	// Beta2 scales stage-2 iterations: N2 = Beta2 x #tensors
	// (paper: 1000; far smaller values already converge on our sizes).
	Beta2 int
	// Stage1MaxIters / Stage2MaxIters cap the stage budgets so very large
	// workloads (hundreds of layers, 10^5 tensors) stay tractable. A cap
	// <= 0 leaves its stage uncapped.
	Stage1MaxIters int
	Stage2MaxIters int
	// T0 / Alpha are the annealing temperatures.
	T0, Alpha float64
	// Seed makes runs reproducible.
	Seed int64
	// BufferStepFrac is the Buffer Allocator's per-iteration budget cut
	// (the paper's a% = 10%).
	BufferStepFrac float64
	// Patience stops the allocator after this many consecutive
	// non-improving iterations (the paper stops after 2).
	Patience int
	// Chains is the portfolio width: every annealing stage runs Chains
	// independently seeded chains (seed, seed+1, ...) and keeps the best
	// incumbent. <= 1 is the classic single-chain search.
	Chains int
	// Workers bounds the goroutines running portfolio chains. The best
	// schedule is a pure function of Seed and Chains - Workers only
	// changes wall-clock time. <= 1 runs the chains serially.
	Workers int
	// MinTile is the initial tiling granularity of stage 1's no-fusion
	// starting solution.
	MinTile int
	// Ablate disables individual design choices (Sec. VII ablations).
	Ablate Ablation
}

// Ablation switches off SoMa design features to quantify their value.
type Ablation struct {
	// NoFLC restricts the FLC Set to equal the DRAM Cut Set (no
	// weight-freeing fine-grained cuts), like the baseline.
	NoFLC bool
	// NoTiling freezes every tiling number at the initial granularity.
	NoTiling bool
	// NoStage2 skips the DLSA exploration stage.
	NoStage2 bool
	// NoAllocator runs a single two-stage pass with the full buffer
	// instead of the Buffer Allocator loop.
	NoAllocator bool
}

// PaperParams returns the paper's published hyper-parameters. Full runs take
// server-scale time; prefer DefaultParams for interactive use.
func PaperParams() Params {
	return Params{Beta1: 100, Beta2: 1000, Stage1MaxIters: 1 << 20, Stage2MaxIters: 1 << 20,
		T0: 0.25, Alpha: 4, Seed: 1, BufferStepFrac: 0.10, Patience: 2, MinTile: 1}
}

// DefaultParams returns laptop-scale parameters that preserve the paper's
// qualitative results.
func DefaultParams() Params {
	return Params{Beta1: 24, Beta2: 8, Stage1MaxIters: 4000, Stage2MaxIters: 12000,
		T0: 0.25, Alpha: 4, Seed: 1, BufferStepFrac: 0.10, Patience: 2, MinTile: 1}
}

// ProfileParams maps a named search profile (as used by the CLI -profile
// flag and the somad job API) to its parameter set; the empty name selects
// the default profile.
func ProfileParams(name string) (Params, error) {
	switch name {
	case "", "default":
		return DefaultParams(), nil
	case "fast":
		return FastParams(), nil
	case "paper":
		return PaperParams(), nil
	default:
		return Params{}, fmt.Errorf("soma: unknown profile %q (fast|default|paper)", name)
	}
}

// FastParams returns the smallest profile used by tests and smoke benches.
func FastParams() Params {
	p := DefaultParams()
	p.Beta1, p.Beta2 = 8, 3
	p.Stage1MaxIters, p.Stage2MaxIters = 1200, 2000
	p.Patience = 1
	return p
}

// StageResult bundles one stage's outcome.
type StageResult struct {
	Metrics *sim.Metrics
	Cost    float64
	Stats   sa.PortfolioStats
}

// Result is the framework output for one workload/hardware pair.
type Result struct {
	Encoding *core.Encoding
	Schedule *core.Schedule
	// Stage1 holds the best LFA solution under double-buffer DLSA;
	// Stage2 the final solution after DLSA exploration.
	Stage1, Stage2 StageResult
	// Cost is the final objective value (== Stage2.Cost).
	Cost float64
	// AllocIters is the number of Buffer Allocator iterations executed.
	AllocIters int
	// Stage1Budget is the winning stage-1 buffer budget.
	Stage1Budget int64
	// Cache is this run's evaluation-cache traffic: Hits, Misses and
	// Flushes count what the counters grew by during RunContext (a shared
	// cache's earlier traffic is not this run's), Entries is the cache's
	// size at the end.
	Cache sim.CacheStats
	// Stage1WallNS/Stage2WallNS are the wall-clock nanoseconds spent in
	// each stage summed over every allocator iteration (filled by
	// Run/RunContext; zero for a bare RunOnce). Wall time is measurement,
	// not search state: it never feeds back into the exploration.
	Stage1WallNS, Stage2WallNS int64
}

// Explorer runs SoMa for one graph on one hardware configuration.
type Explorer struct {
	G   *graph.Graph
	CS  *coresched.Scheduler
	Cfg hw.Config
	Obj Objective
	Par Params
	// Cache memoizes full schedule evaluations across stages, chains and
	// allocator iterations (the core-array scheduler keeps its own
	// per-tile cache underneath). Any sim.EvalCache tier works - soma.New
	// installs a private in-process sim.Cache, the somad daemon shares one
	// across jobs, and each cluster worker keeps one for its lifetime.
	Cache sim.EvalCache
	// Scope namespaces this explorer's cache keys. Canonical keys only
	// identify a schedule within one (graph, hardware) pair, so anyone
	// sharing one Cache across several explorers (the somad daemon) must
	// give each distinct workload/platform context a distinct scope. The
	// private cache soma.New installs needs none.
	Scope string
	// Progress, when non-nil, receives solver progress callbacks (stage
	// starts/finishes and per-chain incumbent improvements). It observes
	// the search only and never changes the result; portfolio chains invoke
	// it concurrently, so it must be safe for concurrent use.
	Progress func(Progress)
	// Reg, when non-nil, receives search telemetry: annealer move counters
	// per stage (soma_sa_*), incremental-evaluator counters (sim_inc_*),
	// stage-1 arena counters (sim_arena_*), the evaluation cache's
	// counters (sim_eval_cache_*) and allocator
	// iteration counts. Like Progress it observes only - fixed-seed
	// results are byte-identical with or without it.
	Reg *obs.Registry
	// Track, when non-nil, is the trace track this explorer's stage spans
	// and best-cost counter samples land on.
	Track *obs.Track
	// Journal, when non-nil, collects each annealing chain's convergence
	// trajectory: one obs series per (stage, allocator iteration, chain).
	// Like Reg it is pass-through observation only - fixed-seed results are
	// byte-identical with or without it.
	Journal *obs.Journal
	// allocIter is the 1-based Buffer Allocator iteration currently
	// running, tagged onto progress events. RunContext writes it strictly
	// between RunOnce calls, so concurrent chain callbacks only ever read a
	// settled value.
	allocIter int
	// stage1WallNS/stage2WallNS accumulate per-stage wall time across the
	// allocator loop; RunContext folds them into the Result.
	stage1WallNS, stage2WallNS int64
	// cacheBase is Cache's counter snapshot taken when RunContext started;
	// cacheTraffic reports the growth since.
	cacheBase sim.CacheStats
	// memo holds the FLG plans, slab sizes and tile costs of every stage-1
	// miss (see flgMemo).
	memoMu sync.Mutex
	memo   *core.FLGMemo
}

// New builds an explorer. The core-array scheduler cache and the evaluation
// cache are shared across all stages and allocator iterations.
func New(g *graph.Graph, cfg hw.Config, obj Objective, par Params) *Explorer {
	return &Explorer{G: g, CS: coresched.New(cfg), Cfg: cfg, Obj: obj, Par: par,
		Cache: sim.NewCache(0)}
}

// portfolio normalizes the Params' portfolio knobs.
func (e *Explorer) portfolio() sa.PortfolioConfig {
	return sa.PortfolioConfig{Chains: e.Par.Chains, Workers: e.Par.Workers}
}

// stageJournal hands a stage's portfolio each chain's convergence series,
// keyed by the current allocator iteration; nil when journaling is off.
func (e *Explorer) stageJournal(stage string) func(int) *obs.Series {
	if e.Journal == nil {
		return nil
	}
	j, iter := e.Journal, e.allocIter
	return func(chain int) *obs.Series { return j.Series(stage, iter, chain) }
}

// objective folds one evaluation into the annealing cost: +Inf when the
// evaluation failed (an illegal or deadlocked schedule) or broke its buffer
// budget, Energy^N x Delay^M otherwise. Both stages score every candidate,
// and their winners, through it.
func (e *Explorer) objective(m *sim.Metrics, err error) float64 {
	if err != nil || !m.BufferOK {
		return math.Inf(1)
	}
	return m.Cost(e.Obj.N, e.Obj.M)
}

// Run executes the full Buffer Allocator loop (Sec. V-B): iteration 1 gives
// stage 1 the whole GBUF; subsequent iterations shrink the stage-1 budget by
// BufferStepFrac of the first iteration's peak usage, and the loop stops
// after Patience consecutive iterations without improving the overall cost.
func (e *Explorer) Run() (*Result, error) {
	return e.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: canceling ctx stops the
// annealing chains within a few dozen iterations and RunContext returns
// ctx.Err() (a canceled exploration yields no result, even if earlier
// allocator iterations finished - callers wanting partial results should run
// iterations themselves via RunOnce).
func (e *Explorer) RunContext(ctx context.Context) (*Result, error) {
	full := e.Cfg.GBufBytes
	sim.ExportCacheMetrics(e.Cache, e.Reg)
	e.stage1WallNS, e.stage2WallNS = 0, 0
	allocIters := e.Reg.Counter("soma_alloc_iters_total",
		"Buffer Allocator iterations executed.")
	e.cacheBase = sim.CacheStats{}
	if e.Cache != nil {
		e.cacheBase = e.Cache.Stats()
	}
	finish := func(r *Result) *Result {
		if e.Cache != nil {
			r.Cache = e.cacheTraffic()
		}
		r.Stage1WallNS, r.Stage2WallNS = e.stage1WallNS, e.stage2WallNS
		allocIters.Add(int64(r.AllocIters))
		return r
	}
	e.allocIter = 1
	best, err := e.RunOnce(ctx, full, e.Par.Seed)
	if err != nil {
		return nil, err
	}
	best.AllocIters = 1
	best.Stage1Budget = full
	if e.Par.Ablate.NoAllocator {
		return finish(best), nil
	}

	step := int64(e.Par.BufferStepFrac * float64(best.Stage1.Metrics.PeakBufferBytes))
	if step <= 0 {
		return finish(best), nil
	}
	bad := 0
	for k := 1; ; k++ {
		budget := best.Stage1.Metrics.PeakBufferBytes - int64(k)*step
		if budget <= 0 {
			break
		}
		e.allocIter = k + 1
		cand, err := e.RunOnce(ctx, budget, e.Par.Seed+int64(k))
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if err != nil {
			bad++
		} else if cand.Cost < best.Cost {
			cand.AllocIters = best.AllocIters + 1
			cand.Stage1Budget = budget
			best = cand
			bad = 0
		} else {
			bad++
		}
		best.AllocIters++
		if bad >= e.Par.Patience {
			break
		}
	}
	return finish(best), nil
}

// cacheTraffic is the growth of Cache's hit, miss and flush counters since
// RunContext started (Entries is the cache's current size). A Cache shared
// with concurrent explorers also counts their lookups.
func (e *Explorer) cacheTraffic() sim.CacheStats {
	st := e.Cache.Stats()
	st.Hits -= e.cacheBase.Hits
	st.Misses -= e.cacheBase.Misses
	st.Flushes -= e.cacheBase.Flushes
	st.Rate = st.HitRate()
	return st
}

// RunOnce performs a single two-stage exploration with the given stage-1
// buffer budget. Canceling ctx aborts the exploration with ctx.Err().
func (e *Explorer) RunOnce(ctx context.Context, stage1Budget int64, seed int64) (*Result, error) {
	enc, s1, err := e.RunStage1(ctx, stage1Budget, seed)
	if err != nil {
		return nil, err
	}
	sched, err := core.Parse(e.G, enc)
	if err != nil {
		return nil, fmt.Errorf("soma: reparsing stage-1 winner: %w", err)
	}
	if e.Par.Ablate.NoStage2 {
		return &Result{Encoding: enc, Schedule: sched,
			Stage1: s1, Stage2: s1, Cost: s1.Cost}, nil
	}
	final, s2 := e.RunStage2(ctx, sched, seed)
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	return &Result{
		Encoding: enc,
		Schedule: final,
		Stage1:   s1,
		Stage2:   s2,
		Cost:     s2.Cost,
	}, nil
}

// ErrNoFeasible is returned when not even the initial no-fusion encoding can
// be scheduled within the budget.
var ErrNoFeasible = errors.New("soma: no feasible schedule found")
