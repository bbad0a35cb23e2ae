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
	// Telemetry, when non-nil, receives move counters and best-cost/
	// temperature gauges. Pass-through only: it never influences the rng
	// stream or the acceptance rule, so runs are byte-identical with or
	// without it. Counters are added in bulk when a chain finishes; gauges
	// are set on incumbent improvements (rare), so the hot loop pays
	// nothing.
	Telemetry *Telemetry
	// Journal, when non-nil, receives this chain's convergence trajectory:
	// a sample of the run's cumulative counters, costs and temperature every
	// Journal.SampleStride() moves, plus per-operator accept/reject tallies
	// when the MoveState implements MoveKinder. Pass-through only, like
	// Telemetry: it never draws from the rng or alters control flow, so
	// fixed-seed results are byte-identical with or without it.
	Journal *obs.Series
}

// Telemetry is the annealer's bundle of obs instruments. Fields may be nil
// individually (obs instruments are no-ops on nil receivers), and a nil
// *Telemetry disables the whole bundle. One Telemetry may be shared by all
// chains of a portfolio: counters are atomic, and the gauges are
// last-write-wins progress indicators.
type Telemetry struct {
	// Proposed counts every Propose call (productive or not); Accepted and
	// Rejected split the productive ones by the acceptance draw; Improved
	// counts incumbent improvements.
	Proposed, Accepted, Rejected, Improved *obs.Counter
	// BestCost and Temp are sampled at each incumbent improvement.
	BestCost, Temp *obs.Gauge
}

// NewTelemetry registers the annealer's metric family on reg under the
// given stage label ("stage1", "stage2", "cocco", ...). Nil-safe: a nil
// registry yields a nil Telemetry.
func NewTelemetry(reg *obs.Registry, stage string) *Telemetry {
	if reg == nil {
		return nil
	}
	return &Telemetry{
		Proposed: reg.Counter("soma_sa_moves_proposed_total",
			"Annealing moves proposed (including unproductive draws).", "stage", stage),
		Accepted: reg.Counter("soma_sa_moves_accepted_total",
			"Annealing moves accepted.", "stage", stage),
		Rejected: reg.Counter("soma_sa_moves_rejected_total",
			"Annealing moves rejected by the acceptance rule.", "stage", stage),
		Improved: reg.Counter("soma_sa_improvements_total",
			"Incumbent (best-so-far) improvements.", "stage", stage),
		BestCost: reg.Gauge("soma_sa_best_cost",
			"Best cost seen, sampled at each improvement.", "stage", stage),
		Temp: reg.Gauge("soma_sa_temperature",
			"Cooling-schedule temperature at the last improvement.", "stage", stage),
	}
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
