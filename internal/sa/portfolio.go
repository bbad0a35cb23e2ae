package sa

import "soma/internal/obs"

// PortfolioConfig sizes a portfolio run: Chains independent annealing chains
// executed on at most Workers goroutines. Zero or negative values normalize
// to 1, so the zero value is exactly one serial chain.
type PortfolioConfig struct {
	// Chains is the number of independently seeded restarts. Chain i runs
	// with seed Config.Seed+i, so the portfolio's outcome is a pure
	// function of (Config, Chains) - the Workers knob only changes
	// wall-clock time, never the returned solution.
	Chains int
	// Workers bounds the goroutines running chains concurrently.
	Workers int
	// OnImprove, when non-nil, receives every chain's incumbent
	// improvements tagged with the chain index. Chains run concurrently, so
	// calls may arrive interleaved from multiple goroutines; the callback
	// must be safe for concurrent use and must not influence the search.
	OnImprove func(chain, iter int, cost float64)
	// Journal, when non-nil, hands each chain its own convergence series
	// (Config.Journal for chain c is Journal(c)). It is called once per
	// chain before the chain goroutines start, so obs.Journal.Series
	// creation order stays deterministic; a nil return disables journaling
	// for that chain.
	Journal func(chain int) *obs.Series
}

func (p PortfolioConfig) normalized() PortfolioConfig {
	if p.Chains < 1 {
		p.Chains = 1
	}
	if p.Workers < 1 {
		p.Workers = 1
	}
	if p.Workers > p.Chains {
		p.Workers = p.Chains
	}
	return p
}

// PortfolioStats aggregates the chain runs.
type PortfolioStats struct {
	// Total sums Iterations/Accepted/Improved across every chain;
	// Total.BestIter is the winning chain's best iteration.
	Total Stats
	// Chains/Workers are the normalized pool dimensions actually used.
	Chains, Workers int
	// BestChain is the index of the winning chain (ties break toward the
	// lowest index, which keeps selection deterministic).
	BestChain int
	// PerChain holds each chain's own statistics.
	PerChain []Stats
}
