package sa

import "soma/internal/obs"

// Config tunes one annealing run.
type Config struct {
	// T0 is the initial temperature; Alpha the cooling rate.
	T0, Alpha float64
	// Iters is N, the total iteration budget.
	Iters int
	// Seed drives the operator selection (deterministic runs).
	Seed int64
	// OnImprove, when non-nil, is invoked after every improvement of the
	// incumbent with the iteration index and the new best cost. It observes
	// the search only: it must not mutate shared state, and it runs on the
	// annealing goroutine, so it should be fast.
	OnImprove func(iter int, cost float64)
	// Journal, when non-nil, receives this chain's convergence trajectory:
	// a sample of the run's cumulative counters, costs and temperature every
	// Journal.SampleStride() moves, plus per-operator accept/reject tallies
	// when the MoveState implements MoveKinder. Pass-through only: it never
	// draws from the rng or alters control flow, so fixed-seed results are
	// byte-identical with or without it.
	Journal *obs.Series
}

// Stats summarizes a run.
type Stats struct {
	Iterations int
	Accepted   int
	// Rejected counts productive proposals turned down by the acceptance
	// rule (Iterations - Accepted - Rejected is the unproductive draws).
	Rejected int
	Improved int
	BestIter int
}

// Temperature evaluates the paper's cooling schedule at iteration n of N.
func Temperature(t0, alpha float64, n, total int) float64 {
	if total <= 0 {
		return 0
	}
	frac := float64(n) / float64(total)
	if frac >= 1 {
		return 0
	}
	return t0 * (1 - frac) / (1 + alpha*frac)
}

// cancelCheckEvery is how many iterations pass between context polls: rare
// enough to stay off the hot path, frequent enough that cancellation lands
// within a handful of schedule evaluations.
const cancelCheckEvery = 32
