package sa

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sync"

	"soma/internal/obs"
)

// journalSample packs the loop's cumulative counters into one obs.Sample.
func journalSample(move int64, st Stats, bestCost, curCost, temp float64,
	incs IncCountSource) obs.Sample {
	sm := obs.Sample{Move: move, Proposed: int64(st.Iterations),
		Accepted: int64(st.Accepted), Rejected: int64(st.Rejected),
		Improved: int64(st.Improved), BestCost: bestCost, CurCost: curCost,
		Temperature: temp}
	if incs != nil {
		sm.IncResumed, sm.IncFallbacks = incs.IncCounts()
	}
	return sm
}

// MoveState is the face of an annealing problem. Rather than cloning the
// whole state per candidate, a MoveState applies one move in place, reports
// its cost, and then commits or rolls it back depending on the acceptance
// draw - which is what lets an incremental evaluator (sim.Incremental)
// splice cached simulation state instead of replaying the schedule per
// candidate.
//
// The contract: Propose applies at most one move and returns its cost;
// ok=false means the drawn move was unproductive, the state is unchanged,
// and neither Accept nor Reject will be called. After ok=true, exactly one
// of Accept/Reject follows before the next Propose. Snapshot captures the
// current accepted state (it is called once at init and on every incumbent
// improvement). The value it returns may be a buffer the state reuses: it
// stays valid across further moves, but only until the next Snapshot, which
// is all the annealer keeps.
type MoveState[S any] interface {
	// InitCost evaluates the initial state (+Inf marks infeasible).
	InitCost() float64
	// Propose applies one candidate move and returns its cost.
	Propose(rng *rand.Rand) (cost float64, ok bool)
	// Accept commits the proposed move.
	Accept()
	// Reject rolls the proposed move back.
	Reject()
	// Snapshot captures the accepted state for best-so-far tracking,
	// valid until the next Snapshot.
	Snapshot() S
}

// MoveKinder is an optional MoveState extension. A state that implements it
// reports which operator its last productive Propose drew ("order",
// "move-tensor", ...), letting Config.Journal tally accept/reject counts per
// move kind. MoveKind is only consulted after Propose returned ok=true.
type MoveKinder interface {
	MoveKind() string
}

// IncCountSource is an optional MoveState extension exposing the incremental
// evaluator's cumulative resumed/fallback proposal counts (sim.IncStats) so
// journal samples can track the incremental-vs-fallback ratio over a run.
type IncCountSource interface {
	IncCounts() (resumed, fallbacks int64)
}

// runMovesCtx anneals a MoveState with the paper's acceptance rule and
// cooling schedule, and returns the best state seen. It honours cooperative
// cancellation: when ctx is canceled the loop stops within cancelCheckEvery
// iterations and returns the best state seen so far. Callers that must
// distinguish a canceled run from a converged one check ctx.Err() after
// runMovesCtx returns (the annealer itself never fails).
func runMovesCtx[S any](ctx context.Context, cfg Config, ms MoveState[S]) (S, float64, Stats) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	curCost := ms.InitCost()
	best, bestCost := ms.Snapshot(), curCost
	var st Stats

	// Journal setup: resolved once, outside the hot loop. The journal only
	// ever reads values the loop already computes - it never touches rng or
	// steering state, which is what keeps fixed-seed runs byte-identical
	// with it on or off.
	jr := cfg.Journal
	var jstride int64
	var kinder MoveKinder
	var incs IncCountSource
	if jr != nil {
		jstride = int64(jr.SampleStride())
		kinder, _ = ms.(MoveKinder)
		incs, _ = ms.(IncCountSource)
		jr.Record(journalSample(0, st, bestCost, curCost,
			Temperature(cfg.T0, cfg.Alpha, 0, cfg.Iters), incs))
	}

	for n := 0; n < cfg.Iters; n++ {
		if n%cancelCheckEvery == 0 && ctx.Err() != nil {
			break
		}
		st.Iterations++
		cc, ok := ms.Propose(rng)
		if ok {
			accept := false
			switch {
			case cc <= curCost:
				accept = true
			case math.IsInf(curCost, 1):
				accept = !math.IsInf(cc, 1)
			case math.IsInf(cc, 1):
				accept = false
			default:
				temp := Temperature(cfg.T0, cfg.Alpha, n, cfg.Iters)
				if temp > 0 {
					p := math.Exp((curCost - cc) / (curCost * temp))
					accept = rng.Float64() < p
				}
			}
			if accept {
				st.Accepted++
				ms.Accept()
				curCost = cc
				if curCost < bestCost {
					best, bestCost = ms.Snapshot(), curCost
					st.Improved++
					st.BestIter = n
					if cfg.OnImprove != nil {
						cfg.OnImprove(n, bestCost)
					}
				}
			} else {
				st.Rejected++
				ms.Reject()
			}
			if jr != nil && kinder != nil {
				jr.MoveOutcome(kinder.MoveKind(), accept)
			}
		}
		if jr != nil && jstride > 0 && int64(st.Iterations)%jstride == 0 {
			jr.Record(journalSample(int64(st.Iterations), st, bestCost, curCost,
				Temperature(cfg.T0, cfg.Alpha, n+1, cfg.Iters), incs))
		}
	}
	if jr != nil {
		jr.Finish(journalSample(int64(st.Iterations), st, bestCost, curCost,
			Temperature(cfg.T0, cfg.Alpha, st.Iterations, cfg.Iters), incs),
			int64(st.BestIter))
	}
	return best, bestCost, st
}

// RunMovesPortfolioCtx anneals Chains independent chains and returns the
// best state found across all of them. Chain c runs runMovesCtx under seed
// Config.Seed+c, and the winner is selected by (cost, chain index), so a
// fixed Config.Seed yields an identical result for any Workers value -
// parallelism is observationally equivalent to the serial sweep.
//
// newState builds chain c's private MoveState: move-aware states are
// stateful by design (they carry spliced evaluator caches), so the chains
// cannot share one state value. newState must be safe to call from the
// worker goroutines. ctx is shared by every chain, so canceling it stops the
// whole portfolio within cancelCheckEvery iterations per chain; the best
// state seen across the chains that did run is still returned.
//
// A chain that panics cancels the others; once they have returned, the
// lowest-index panicking chain's panic is raised again on the caller's
// goroutine as a *ChainPanic, so the caller's own recovery sees it.
func RunMovesPortfolioCtx[S any](ctx context.Context, cfg Config, pf PortfolioConfig,
	newState func(chain int) MoveState[S]) (S, float64, PortfolioStats) {

	pf = pf.normalized()
	if pf.Chains == 1 {
		// One chain runs on the caller's goroutine, without the pool's
		// per-chain outcome, panic and semaphore bookkeeping.
		if pf.OnImprove != nil {
			cfg.OnImprove = func(iter int, c float64) { pf.OnImprove(0, iter, c) }
		}
		if pf.Journal != nil {
			cfg.Journal = pf.Journal(0)
		}
		best, bestCost, st := runMovesCtx(ctx, cfg, newState(0))
		return best, bestCost, PortfolioStats{
			Total: st, Chains: 1, Workers: 1, PerChain: []Stats{st}}
	}

	type outcome struct {
		best S
		cost float64
		st   Stats
	}
	results := make([]outcome, pf.Chains)
	panics := make([]*ChainPanic, pf.Chains)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	sem := make(chan struct{}, pf.Workers)
	for c := 0; c < pf.Chains; c++ {
		// Per-chain configs are derived on the caller's goroutine so journal
		// series come into existence in chain order, not pool-schedule order.
		chainCfg := cfg
		chainCfg.Seed = cfg.Seed + int64(c)
		if pf.OnImprove != nil {
			chain := c
			chainCfg.OnImprove = func(iter int, bc float64) { pf.OnImprove(chain, iter, bc) }
		}
		if pf.Journal != nil {
			chainCfg.Journal = pf.Journal(c)
		}
		wg.Add(1)
		go func(c int, chainCfg Config) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			defer func() {
				if v := recover(); v != nil {
					panics[c] = &ChainPanic{Chain: c, Value: v, Stack: debug.Stack()}
					cancel()
				}
			}()
			best, bc, st := runMovesCtx(ctx, chainCfg, newState(c))
			results[c] = outcome{best: best, cost: bc, st: st}
		}(c, chainCfg)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}

	ps := PortfolioStats{Chains: pf.Chains, Workers: pf.Workers,
		PerChain: make([]Stats, pf.Chains)}
	winner := 0
	for c, r := range results {
		ps.PerChain[c] = r.st
		ps.Total.Iterations += r.st.Iterations
		ps.Total.Accepted += r.st.Accepted
		ps.Total.Rejected += r.st.Rejected
		ps.Total.Improved += r.st.Improved
		if r.cost < results[winner].cost {
			winner = c
		}
	}
	ps.BestChain = winner
	ps.Total.BestIter = results[winner].st.BestIter
	return results[winner].best, results[winner].cost, ps
}

// ChainPanic is the value RunMovesPortfolioCtx panics with when one of its
// chain goroutines panicked: the chain, its panic value and the stack of
// the goroutine that panicked.
type ChainPanic struct {
	Chain int
	Value any
	Stack []byte
}

func (p *ChainPanic) Error() string {
	return fmt.Sprintf("sa: portfolio chain %d: %v", p.Chain, p.Value)
}
