package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/engine"
	"soma/internal/hw"
	"soma/internal/obs"
	"soma/internal/report"
	"soma/internal/sim"
)

// probe measures the solver layers on direct engine.Run calls. Every solve
// gets a private timing cache (the same fresh cache a plain solve builds for
// itself), the probe's metrics registry and tracer, and hooks that attribute
// each cache call to the annealing stage running it. Winners are replayed
// afterwards through core.Parse, coresched and sim.Evaluate.
type probe struct {
	o     *obs.Obs
	track *obs.Track
	times cacheTimes

	solves                      int
	solveMS, stage1MS, stage2MS float64
	allocIters                  int
	replays                     []replay
	// sink keeps replayed calls from being optimized away.
	sink any
}

func newProbe(tr *obs.Tracer, workload string) *probe {
	return &probe{o: &obs.Obs{Reg: obs.NewRegistry(), Tracer: tr}, track: tr.Track(workload + " replay")}
}

// solve runs one instrumented engine.Run.
func (p *probe) solve(ctx context.Context, req engine.Request) (*report.Result, error) {
	tc := &timedCache{inner: sim.NewCache(0), times: &p.times, pending: map[string]time.Time{}}
	req.Cache = tc
	req.Obs = p.o
	h := &engine.Hooks{Event: func(e engine.Event) {
		if e.Kind == "stage" {
			tc.setStage(e.Stage)
		}
	}}
	res, err := engine.Run(ctx, req, h)
	if err != nil {
		return nil, err
	}
	if res.Telemetry == nil || res.Search == nil {
		return nil, errors.New("solve returned no telemetry or search section")
	}
	p.solves++
	p.solveMS += res.Telemetry.SolveWallMS
	p.stage1MS += res.Telemetry.Stage1WallMS
	p.stage2MS += res.Telemetry.Stage2WallMS
	p.allocIters += res.Search.AllocIters
	return res, nil
}

// cacheTimes aggregates timing-cache observations across solves. Index 0 of
// the per-stage arrays is stage 1, index 1 stage 2.
type cacheTimes struct {
	mu     sync.Mutex
	hits   [2]int64
	misses [2]int64
	getNS  []float64
	// missS holds each miss's interval from the failed Get to the Put of
	// the computed evaluation, in seconds.
	missS [2][]float64
}

// timedCache is a sim.EvalCache that times its inner cache. A miss is timed
// from the Get that failed to the Put that stores the evaluation, which is
// the work the solver did in between: parse, tile costs and merge in stage
// 1, the incremental re-simulation in stage 2. Pending misses are keyed by
// cache key, so concurrent portfolio chains cannot mix up their intervals.
type timedCache struct {
	inner sim.EvalCache
	times *cacheTimes
	stage atomic.Int32

	mu      sync.Mutex
	pending map[string]time.Time
}

func (c *timedCache) setStage(name string) {
	if name == "stage2" {
		c.stage.Store(1)
	} else {
		c.stage.Store(0)
	}
}

func (c *timedCache) Get(key string) (*sim.Metrics, error, bool) {
	start := time.Now()
	m, err, ok := c.inner.Get(key)
	d := time.Since(start)
	st := c.stage.Load()
	t := c.times
	t.mu.Lock()
	t.getNS = append(t.getNS, float64(d.Nanoseconds()))
	if ok {
		t.hits[st]++
	} else {
		t.misses[st]++
	}
	t.mu.Unlock()
	if !ok {
		c.mu.Lock()
		if _, dup := c.pending[key]; !dup {
			c.pending[key] = start
		}
		c.mu.Unlock()
	}
	return m, err, ok
}

func (c *timedCache) Put(key string, m *sim.Metrics, err error) {
	now := time.Now()
	c.mu.Lock()
	start, ok := c.pending[key]
	delete(c.pending, key)
	c.mu.Unlock()
	if ok {
		st := c.stage.Load()
		c.times.mu.Lock()
		c.times.missS[st] = append(c.times.missS[st], now.Sub(start).Seconds())
		c.times.mu.Unlock()
	}
	c.inner.Put(key, m, err)
}

func (c *timedCache) Stats() sim.CacheStats { return c.inner.Stats() }

// replay is the cost of re-running the pieces of one evaluation on a winner.
type replay struct {
	tiles, tensors                                int
	parse, encKey, schedKey, tilesCold, tilesWarm time.Duration
	merge                                         time.Duration
}

// replay times the pieces of a stage-1 cache miss on a solve's winner:
// parsing its encoding, the two canonical keys, tile costs on a fresh and on
// a warm core-array scheduler, and the merge simulation over precomputed
// tile costs. Each piece is the median of five calls.
func (p *probe) replay(res *report.Result, cfg hw.Config) error {
	span := p.track.Start("replay", "bench").Arg("model", res.Workload.Model).Arg("seed", res.Seed)
	defer span.End()
	raw := res.Raw
	if raw == nil || raw.Graph == nil || raw.Encoding == nil || raw.Schedule == nil {
		return errors.New("replay: result carries no winner")
	}
	s := raw.Schedule
	r := replay{tiles: s.NumTiles(), tensors: len(s.Tensors)}
	var err error
	if r.parse, err = medianTime(func() error {
		ps, err := core.Parse(raw.Graph, raw.Encoding)
		p.sink = ps
		return err
	}); err != nil {
		return fmt.Errorf("replay parse: %w", err)
	}
	r.encKey, _ = medianTime(func() error { p.sink = raw.Encoding.CanonicalKey(); return nil })
	r.schedKey, _ = medianTime(func() error { p.sink = s.CanonicalKey(); return nil })
	r.tilesCold, _ = medianTime(func() error {
		p.sink = sim.PrecomputeTileCosts(s, coresched.New(cfg))
		return nil
	})
	cs := coresched.New(cfg)
	tc := sim.PrecomputeTileCosts(s, cs)
	r.tilesWarm, _ = medianTime(func() error { p.sink = sim.PrecomputeTileCosts(s, cs); return nil })
	if r.merge, err = medianTime(func() error {
		m, err := sim.Evaluate(s, cs, sim.Options{TileCosts: tc})
		p.sink = m
		return err
	}); err != nil {
		return fmt.Errorf("replay merge: %w", err)
	}
	p.replays = append(p.replays, r)
	return nil
}

// medianTime returns the median wall time of five calls of f.
func medianTime(f func() error) (time.Duration, error) {
	const reps = 5
	xs := make([]float64, reps)
	for i := range xs {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs[i] = float64(time.Since(start))
	}
	return time.Duration(median(xs)), nil
}

// layerMetrics computes the per-layer metrics of a traced run: the timed
// phase's accounting, then the solver layers from the direct-solve probe.
func layerMetrics(o *outcome, m metrics) error {
	ph := o.phase
	n := float64(ph.solves)
	if n == 0 {
		return errors.New("timed phase recorded no engine solves")
	}
	m.set("engine.solve_ms", "ms", 1e3*ph.engineS/n)
	m.set("harness.outside_engine_ms", "ms", 1e3*(ph.busyS-ph.engineS)/n)
	m.set("sim.cache_hit_rate", "ratio", ratio(float64(ph.hits), float64(ph.hits+ph.misses)))
	m.set("runtime.alloc_mb_per_solve", "MB", float64(ph.mem1.TotalAlloc-ph.mem0.TotalAlloc)/(1<<20)/n)
	m.set("runtime.gc_per_solve", "count", float64(ph.mem1.NumGC-ph.mem0.NumGC)/n)
	if o.peakHeap == 0 {
		return errors.New("no garbage collection recorded the live heap")
	}
	m.set("runtime.peak_heap_mb", "MB", float64(o.peakHeap)/(1<<20))
	if o.probe == nil {
		return errors.New("traced run has no direct-solve probe")
	}
	return o.probe.metrics(m)
}

func (p *probe) metrics(m metrics) error {
	if p.solves == 0 || len(p.replays) == 0 {
		return errors.New("probe ran no solves or replays")
	}
	n := float64(p.solves)
	snap := p.o.Reg.Snapshot()
	stages := [2]string{"stage1", "stage2"}
	stageMS := [2]float64{p.stage1MS, p.stage2MS}

	m.set("engine.overhead_ms", "ms", (p.solveMS-p.stage1MS-p.stage2MS)/n)
	m.set("soma.alloc_iters", "count", float64(p.allocIters)/n)
	for i, st := range stages {
		proposed := family(snap, "soma_sa_moves_proposed_total", st)
		accepted := family(snap, "soma_sa_moves_accepted_total", st)
		rejected := family(snap, "soma_sa_moves_rejected_total", st)
		m.set("soma."+st+"_ms", "ms", stageMS[i]/n)
		m.set("soma."+st+"_move_us", "us", 1e3*ratio(stageMS[i], proposed))
		m.set("sa."+st+"_moves", "count", proposed/n)
		m.set("sa."+st+"_accept_frac", "ratio", ratio(accepted, accepted+rejected))
		m.set("sim."+st+"_hit_rate", "ratio",
			ratio(float64(p.times.hits[i]), float64(p.times.hits[i]+p.times.misses[i])))
	}
	m.set("sim.inc_resumed_frac", "ratio",
		ratio(family(snap, "sim_inc_resumed_total", ""), family(snap, "sim_inc_proposals_total", "")))
	m.set("sim.inc_events_frac", "ratio",
		ratio(family(snap, "sim_inc_events_simulated_total", ""), family(snap, "sim_inc_events_total", "")))
	m.set("sim.inc_fallbacks", "count", family(snap, "sim_inc_fallbacks_total", "")/n)

	for _, q := range []struct {
		name, unit string
		xs         []float64
		p, scale   float64
	}{
		{"sim.cache_get_ns_p50", "ns", p.times.getNS, 0.5, 1},
		{"sim.stage1_miss_ms_p50", "ms", p.times.missS[0], 0.5, 1e3},
		{"sim.stage1_miss_ms_p90", "ms", p.times.missS[0], 0.9, 1e3},
		{"sim.stage2_miss_us_p50", "us", p.times.missS[1], 0.5, 1e6},
		{"sim.stage2_miss_us_p90", "us", p.times.missS[1], 0.9, 1e6},
	} {
		v, err := percentile(q.xs, q.p)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		m.set(q.name, q.unit, v*q.scale)
	}

	med := func(f func(r replay) float64) float64 {
		xs := make([]float64, len(p.replays))
		for i, r := range p.replays {
			xs[i] = f(r)
		}
		return median(xs)
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	m.set("core.winner_tiles", "count", med(func(r replay) float64 { return float64(r.tiles) }))
	m.set("core.winner_tensors", "count", med(func(r replay) float64 { return float64(r.tensors) }))
	m.set("core.parse_ms", "ms", med(func(r replay) float64 { return ms(r.parse) }))
	m.set("core.enc_key_us", "us", med(func(r replay) float64 { return us(r.encKey) }))
	m.set("core.sched_key_us", "us", med(func(r replay) float64 { return us(r.schedKey) }))
	m.set("coresched.tile_costs_cold_ms", "ms", med(func(r replay) float64 { return ms(r.tilesCold) }))
	m.set("coresched.tile_costs_warm_ms", "ms", med(func(r replay) float64 { return ms(r.tilesWarm) }))
	m.set("sim.merge_ms", "ms", med(func(r replay) float64 { return ms(r.merge) }))
	return nil
}

// family sums a registry family's series, restricted to one stage label
// when stage is non-empty. Histogram series contribute their sums.
func family(snap []obs.MetricSnapshot, name, stage string) float64 {
	var sum float64
	for _, f := range snap {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if stage == "" || strings.Contains(s.Labels, `stage="`+stage+`"`) {
				sum += s.Value
			}
		}
	}
	return sum
}

// histCount is the observation count of a histogram family across series.
func histCount(snap []obs.MetricSnapshot, name string) int64 {
	var n int64
	for _, f := range snap {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if s.Histogram != nil {
				n += s.Histogram.Count
			}
		}
	}
	return n
}
