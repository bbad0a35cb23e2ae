package dse

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"soma/internal/engine"
	"soma/internal/soma"
)

// Fidelity values carried by adaptive rows (Row.Fidelity). Exhaustive rows
// leave the field empty, which keeps pre-adaptive journals byte-identical
// under the extended schema.
const (
	FidelityProbe = "probe"
	FidelityFull  = "full"
)

// ProbeParams scales a resolved parameter set down to rung-0 probe fidelity:
// a single annealing chain with quartered stage multipliers and capped
// iteration counts. Probes exist to rank regions of the grid, not to find
// the best schedule, so they trade solution quality for a large constant
// factor in wall time. Deterministic: the probe of a point is as much a pure
// function of the spec as its full solve.
func ProbeParams(par soma.Params) soma.Params {
	par.Chains, par.Workers = 0, 0 // single chain, no portfolio
	if par.Beta1 > 1 {
		par.Beta1 = (par.Beta1 + 3) / 4
	}
	if par.Beta2 > 1 {
		par.Beta2 = (par.Beta2 + 3) / 4
	}
	// A cap <= 0 means uncapped, so it gets the probe cap too.
	if par.Stage1MaxIters <= 0 || par.Stage1MaxIters > 800 {
		par.Stage1MaxIters = 800
	}
	if par.Stage2MaxIters <= 0 || par.Stage2MaxIters > 1500 {
		par.Stage2MaxIters = 1500
	}
	par.Patience = 1
	return par
}

// AdaptiveStats summarizes what the successive-halving driver spent and
// saved; Outcome.Adaptive carries it for the CLI report, the somad API and
// the dse_adaptive_* metrics.
type AdaptiveStats struct {
	// Budget is the resolved full-fidelity cap; Probes the grid size
	// (every point is probed); Promotions the full solves actually issued,
	// of which Explored came from the seeded exploration quota rather than
	// the front band.
	Budget     int `json:"budget"`
	Probes     int `json:"probes"`
	Promotions int `json:"promotions"`
	Explored   int `json:"explored"`
	// SolvesSaved is Probes - Promotions: the full-fidelity solves an
	// exhaustive run of the same grid would have issued but this run
	// skipped.
	SolvesSaved int `json:"solves_saved"`
}

// adaptiveRun is the deterministic state machine behind RunAdaptive: the
// two-rung row stores, the promotion decision and the journal-resume rules.
// The journal layout is the dispatch sequence flattened: probe rows 0..N-1
// in point-index order, then the promoted full-fidelity rows in ascending
// point-index order.
type adaptiveRun struct {
	*run
	ad Adaptive // resolved (withDefaults) block

	// probes is point-indexed (rung 0 is the identity sequence); fulls is
	// promotion-order-indexed. probeDone/fullDone count the journal-resumed
	// prefix of each rung.
	probes    []Row
	probeDone int
	promoted  []int // ascending point indices promoted to full fidelity
	explored  int   // how many of promoted came from the exploration quota
	fulls     []Row
	fullDone  int

	dists []float64 // per-point probe front distance (NaN = failed/unscored)
}

// newAdaptiveRun expands and validates an adaptive spec.
func newAdaptiveRun(sw Sweep, opt Options) (*adaptiveRun, error) {
	if sw.Adaptive == nil {
		return nil, fmt.Errorf("dse: sweep spec has no adaptive block")
	}
	r, err := newRun(sw, opt)
	if err != nil {
		return nil, err
	}
	return &adaptiveRun{run: r, ad: sw.Adaptive.withDefaults(len(r.pts)),
		probes: make([]Row, len(r.pts))}, nil
}

// load reads the committed prefix of an adaptive journal into the rung
// stores and returns the raw prefix lines (rewritten verbatim by
// openJournal, so resumed rows never re-marshal). The trusted prefix ends at
// the first row that contradicts the deterministic sequence: a probe row out
// of index order, or a full row whose point is not the next recomputed
// promotion - everything after is distrusted, exactly like a torn tail.
func (a *adaptiveRun) load(path string) ([][]byte, error) {
	n := len(a.pts)
	rows, lines, err := loadJournal(path, a.digest, n, func(k int, row Row) bool {
		if k < n {
			return row.Point.Index == k && row.Fidelity == FidelityProbe
		}
		return row.Point.Index < n && row.Fidelity == FidelityFull
	})
	if err != nil {
		return nil, err
	}
	a.probeDone = min(len(rows), n)
	copy(a.probes, rows[:a.probeDone])
	if a.probeDone < n {
		return lines, nil
	}
	// Rung 0 is complete: the promotion set is a pure function of the probe
	// rows, so recompute it and validate the full-row tail against it.
	a.promoteProbes()
	for _, row := range rows[n:] {
		if a.fullDone >= len(a.promoted) || row.Point.Index != a.promoted[a.fullDone] {
			break
		}
		a.fulls[a.fullDone] = row
		a.fullDone++
	}
	return lines[:n+a.fullDone], nil
}

// promoteProbes computes the rung-1 promotion set from the completed probe
// rows. Idempotent; a pure function of (probe rows, resolved adaptive block,
// spec seed), which is what lets a resumed run re-derive the same set.
func (a *adaptiveRun) promoteProbes() {
	if a.promoted != nil || a.fulls != nil {
		return
	}
	a.promoted, a.explored, a.dists = promote(a.probes, a.ad, a.par.Seed)
	a.fulls = make([]Row, len(a.promoted))
}

// promote is the Pareto-guided selection: rank successful probes by relative
// distance to the probe-level cost-vs-buffer front staircase, take the
// in-band closest up to budget minus the exploration quota, then fill the
// remaining budget by a seeded deterministic draw from the leftover pool.
// Failed probes are never promoted - their error row is the point's final
// answer, like an infeasible exhaustive cell.
func promote(probes []Row, ad Adaptive, seed int64) (promoted []int, explored int, dists []float64) {
	dists = make([]float64, len(probes))
	var ok []int
	for i := range dists {
		dists[i] = math.NaN()
		if probes[i].Err == "" && probes[i].Result != nil {
			ok = append(ok, i)
		}
	}
	if len(ok) == 0 {
		return nil, 0, dists
	}
	// dists[i] = (cost_i - f(buf_i)) / f(buf_i), where f is the front
	// staircase: the best probe cost achieved at or below i's buffer size.
	for _, i := range ok {
		front := math.Inf(1)
		for _, j := range ok {
			if probes[j].Result.Hardware.GBufBytes <= probes[i].Result.Hardware.GBufBytes &&
				probes[j].Result.Cost < front {
				front = probes[j].Result.Cost
			}
		}
		if front > 0 && !math.IsInf(front, 1) {
			dists[i] = (probes[i].Result.Cost - front) / front
		} else {
			dists[i] = 0
		}
	}

	budget := ad.Budget
	if budget > len(ok) {
		budget = len(ok)
	}
	quota := ad.Explore
	if quota > budget {
		quota = budget
	}
	ranked := append([]int(nil), ok...)
	sort.SliceStable(ranked, func(x, y int) bool {
		if dists[ranked[x]] != dists[ranked[y]] {
			return dists[ranked[x]] < dists[ranked[y]]
		}
		return ranked[x] < ranked[y]
	})
	chosen := map[int]bool{}
	for _, i := range ranked {
		if len(chosen) >= budget-quota || dists[i] > ad.Epsilon {
			break // band exhausted: leftover capacity goes to exploration
		}
		chosen[i] = true
	}
	// Exploration: fill the rest of the budget from the unchosen successful
	// pool, ordered by a fixed-seed permutation - deterministic for any
	// worker count, but not biased toward the (possibly misleading) probe
	// front.
	var pool []int
	for _, i := range ok {
		if !chosen[i] {
			pool = append(pool, i)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for _, p := range rng.Perm(len(pool)) {
		if len(chosen) >= budget {
			break
		}
		chosen[pool[p]] = true
		explored++
	}
	for i := range chosen {
		promoted = append(promoted, i)
	}
	sort.Ints(promoted)
	return promoted, explored, dists
}

// outcome assembles the final adaptive outcome: one row per grid point in
// canonical index order - the full-fidelity row where the point was
// promoted, its probe row otherwise - so every exhaustive aggregate (Best,
// CostVsBufferFront, convergence scrubbing) works unchanged.
func (a *adaptiveRun) outcome(resumed int) *Outcome {
	rows := make([]Row, len(a.pts))
	copy(rows, a.probes)
	for j, idx := range a.promoted {
		rows[idx] = a.fulls[j]
	}
	return a.finish(rows, resumed, &AdaptiveStats{
		Budget:      a.ad.Budget,
		Probes:      len(a.pts),
		Promotions:  len(a.promoted),
		Explored:    a.explored,
		SolvesSaved: len(a.pts) - len(a.promoted),
	})
}

// recordMetrics emits the dse_adaptive_* series after promotion: probe and
// promotion counts (front band vs exploration quota), the solves saved
// against an exhaustive run, and the front-distance histogram of the probe
// costs the decision ranked.
func (a *adaptiveRun) recordMetrics() {
	reg := a.opt.Obs.Registry()
	if reg == nil {
		return
	}
	reg.Counter("dse_adaptive_probes_total",
		"Probe-fidelity solves issued by adaptive sweeps.").Add(int64(len(a.pts)))
	reg.Counter("dse_adaptive_promotions_total",
		"Points promoted to full fidelity, by selection kind.",
		"kind", "front").Add(int64(len(a.promoted) - a.explored))
	reg.Counter("dse_adaptive_promotions_total",
		"Points promoted to full fidelity, by selection kind.",
		"kind", "explore").Add(int64(a.explored))
	reg.Counter("dse_adaptive_solves_saved_total",
		"Full-fidelity solves an exhaustive run would have issued but the adaptive driver skipped.").
		Add(int64(len(a.pts) - len(a.promoted)))
	h := reg.Histogram("dse_adaptive_front_distance",
		"Relative distance of each successful probe cost to the probe-level cost-vs-buffer front.")
	for _, d := range a.dists {
		if !math.IsNaN(d) {
			h.Observe(d)
		}
	}
}

// RunAdaptive executes an adaptive sweep: probe every grid point at reduced
// fidelity (rung 0), promote the budgeted points nearest the probe front
// plus a seeded exploration quota, and solve only those at full fidelity
// (rung 1). Each rung is one batch through opt.Executor, so journals share
// the exhaustive format and commit discipline - header, then rows at an
// in-order frontier (probes by point index, then promotions by point index)
// - and serial, parallel, sharded and interrupted-then-resumed adaptive runs
// produce byte-identical files. Run dispatches here whenever the spec
// carries an adaptive block.
func RunAdaptive(ctx context.Context, sw Sweep, opt Options) (*Outcome, error) {
	a, err := newAdaptiveRun(sw, opt)
	if err != nil {
		return nil, err
	}
	resumed, err := a.resume(a.load)
	if err != nil {
		return nil, err
	}
	defer a.jw.close()

	n := len(a.pts)
	a.emit(engine.Event{Kind: "sweep-start", Iter: n})
	if err := a.rung(ctx, FidelityProbe, identitySeq(n), a.probeDone, a.probes); err != nil {
		return nil, err
	}
	a.promoteProbes()
	a.recordMetrics()
	if err := a.rung(ctx, FidelityFull, a.promoted, a.fullDone, a.fulls); err != nil {
		return nil, err
	}
	return a.outcome(resumed), nil
}

// rung executes one successive-halving rung as a batch, bracketed by
// rung-start (Iter = points left to solve) and rung-done (Iter = rung size).
func (r *run) rung(ctx context.Context, fid string, seq []int, start int, rows []Row) error {
	r.emit(engine.Event{Kind: "rung-start", Stage: fid, Iter: len(seq) - start})
	if err := r.execute(ctx, fid, seq, start, rows); err != nil {
		return err
	}
	r.emit(engine.Event{Kind: "rung-done", Stage: fid, Iter: len(seq)})
	return nil
}
