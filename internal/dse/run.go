package dse

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"soma/internal/engine"
	"soma/internal/obs"
	"soma/internal/sim"
	"soma/internal/soma"
)

// Options configures one sweep execution.
type Options struct {
	// Cache shares one evaluation cache across every grid point (and, in
	// the somad daemon, across sweeps and plain jobs). The engine scopes
	// keys per (workload, batch, platform, hw-override) context, so
	// heterogeneous points never collide while same-workload neighbors -
	// seed and objective axes in particular - reuse each other's
	// evaluations. nil gives the sweep a private shared cache. Sharing
	// only changes lookup cost, never any result.
	Cache sim.EvalCache
	// Hooks streams sweep progress: "sweep-start" (Iter = grid size),
	// then per point "point-start" when its solve begins and exactly one
	// "point-done" (Cost) or "point-error" (Err) when its row commits,
	// each tagged Component = Point.Label() and Iter = point index, and
	// finally "sweep-done" (Cost = best). nil disables streaming. The
	// somad SSE endpoint serves this stream verbatim.
	Hooks *engine.Hooks
	// Journal is the checkpoint file path ("" disables journaling). If
	// the file already holds a committed prefix of this exact sweep, those
	// points are loaded instead of recomputed and the run continues after
	// them; the finished file is byte-identical to an uninterrupted run's.
	Journal string
	// Obs, when non-nil, receives sweep telemetry (dse_points_total,
	// dse_point_seconds, dse_queue_wait_seconds plus everything the engine
	// and solvers emit) and per-point trace spans, each point on its own
	// track so concurrent points render as parallel timelines. Pure
	// pass-through: rows and journals are byte-identical with or without
	// it (Row.Scrubbed drops the wall-clock Telemetry section).
	Obs *obs.Obs
	// Executor solves the grid points; nil selects the in-process pool
	// bounded by Sweep.Workers. Run keeps everything else - resume,
	// deduplication and the in-order commit, progress events, aggregation
	// - so every executor yields the same rows, journal and event stream.
	Executor Executor
}

// Executor solves one Batch of sweep points: the in-process pool, or a
// remote dispatcher such as the cluster's lease coordinator. Execute solves
// every position in b.Pos and hands each finished row to deliver - in any
// order, from any goroutine, at least once. deliver reports whether the row
// was new: a repeat delivery of a committed position is ignored and returns
// false. Execute returns once every position is delivered, or with ctx's
// error, and never calls deliver after returning. Rows must be pure
// functions of (spec, point index, fidelity), which is what keeps any
// executor's journal byte-identical to the local pool's.
type Executor interface {
	Execute(ctx context.Context, b *Batch, deliver func(pos int, row Row) bool) error
}

// Batch is one dispatch sequence handed to an Executor: a whole exhaustive
// grid, or one adaptive rung.
type Batch struct {
	// Sweep and Digest are the spec and its SpecSHA256, what a remote
	// executor ships with every lease.
	Sweep  Sweep
	Digest string
	// Fidelity is the rung (FidelityProbe, FidelityFull), "" for an
	// exhaustive sweep.
	Fidelity string
	// Seq[pos] is the canonical point index solved at sequence position
	// pos. Pos lists the positions left to solve: the uncommitted suffix
	// of Seq, ascending.
	Seq, Pos []int
	// Obs is the run's telemetry sink (nil disables it).
	Obs *obs.Obs

	r   *run
	sem chan struct{} // the local pool's slots, shared by every Local call
}

// Started emits the point-start event for position pos. Local calls it as
// each solve begins; a remote executor calls it when it dispatches a point.
func (b *Batch) Started(pos int) {
	p := b.r.pts[b.Seq[pos]]
	b.r.opt.Hooks.Emit(engine.Event{Kind: "point-start", Component: p.Label(), Stage: b.Fidelity, Iter: p.Index})
}

// Local solves positions on the in-process pool, delivering each finished
// row. Every Local call of one batch shares the same Sweep.Workers slots, so
// a remote executor's fallback stays within the spec's bound however many
// leases it runs locally. Solves start in the given order; a point aborted
// by ctx is not delivered. Local returns ctx's cancellation cause, if any.
// A panicking solve stops the call: the points still running abort, and
// Local returns the panic as an *engine.PanicError.
func (b *Batch) Local(ctx context.Context, pos []int, deliver func(pos int, row Row) bool) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	queueWait := b.Obs.Registry().Histogram("dse_queue_wait_seconds",
		"Time sweep points wait for a worker slot.")
	enqueued := time.Now()
	var wg sync.WaitGroup
	for _, p := range pos {
		if !b.acquire(ctx) {
			break
		}
		queueWait.Observe(time.Since(enqueued).Seconds())
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer func() { <-b.sem }()
			defer func() {
				if v := recover(); v != nil {
					cancel(engine.Recovered(v))
				}
			}()
			// Commit completed rows even if cancellation raced in right
			// after the solve finished - the journal keeps every point
			// that was actually paid for. Aborted points (neither result
			// nor error) stay uncommitted, stalling the in-order frontier
			// so the journal remains a clean prefix.
			if row := b.solve(ctx, p); row.Result != nil || row.Err != "" {
				deliver(p, row)
			}
		}(p)
	}
	wg.Wait()
	return context.Cause(ctx)
}

// acquire takes a pool slot, reporting false (and holding none) once ctx is
// done.
func (b *Batch) acquire(ctx context.Context) bool {
	select {
	case b.sem <- struct{}{}:
		if ctx.Err() == nil {
			return true
		}
		<-b.sem
	case <-ctx.Done():
	}
	return false
}

// solve runs one grid cell. Engine failures other than cancellation become
// error rows - an infeasible (buffer, bandwidth) corner is data, not a
// reason to abort the grid. A probe batch swaps in the scaled-down
// ProbeParams solve; every row is stamped with the batch fidelity.
func (b *Batch) solve(ctx context.Context, pos int) Row {
	p, par := b.r.pts[b.Seq[pos]], b.r.par
	if b.Fidelity == FidelityProbe {
		par = ProbeParams(par)
	}
	b.Started(pos)
	reg := b.Obs.Registry()
	start := time.Now()
	row := Row{Point: p, Fidelity: b.Fidelity}
	req, err := p.Request(par)
	if err == nil {
		req.Cache = b.r.opt.Cache
		req.Obs = b.Obs
		if b.Sweep.Convergence {
			req.Journal = obs.NewJournal()
		}
		// Concurrent points must not share a trace track: each gets its own
		// row in the viewer, named by grid position (adaptive probe and full
		// solves of one point are distinct tracks).
		track := fmt.Sprintf("point-%03d", p.Index)
		if b.Fidelity != "" {
			track += "-" + b.Fidelity
		}
		req.TraceTrack = track + " " + p.Label()
		row.Result, err = engine.Run(ctx, req, nil)
	}
	reg.Histogram("dse_point_seconds",
		"Wall time of one sweep point solve.").Observe(time.Since(start).Seconds())
	outcome := "ok"
	switch {
	case err != nil && ctx.Err() != nil:
		outcome = "canceled" // aborted: neither result nor error, never delivered
	case err != nil:
		row.Err, outcome = err.Error(), "error"
	case row.Result.Convergence != nil:
		row.Convergence = row.Result.Convergence.Diagnostics
	}
	reg.Counter("dse_points_total", "Sweep points by outcome.", "outcome", outcome).Inc()
	return row
}

// pool is the default Executor: the batch's own bounded in-process pool.
type pool struct{}

func (pool) Execute(ctx context.Context, b *Batch, deliver func(pos int, row Row) bool) error {
	return b.Local(ctx, b.Pos, deliver)
}

// Outcome is a completed (or resumed-and-completed) sweep: every grid row
// plus the summary aggregates.
type Outcome struct {
	Name       string `json:"name,omitempty"`
	SpecSHA256 string `json:"spec_sha256"`
	// Points is the grid size; Resumed counts rows loaded from the
	// journal instead of recomputed; Failed counts error rows.
	Points  int `json:"points"`
	Resumed int `json:"resumed"`
	Failed  int `json:"failed"`
	// Rows holds every grid point in canonical index order.
	Rows []Row `json:"rows"`
	// BestIndex is the lowest-cost successful row (-1 if none).
	BestIndex int `json:"best_index"`
	// Pareto lists the row indices on the cost-vs-buffer-size frontier
	// (ascending buffer), when the sweep spans more than one buffer size:
	// the Fig. 7 co-design question "how much buffer is this cost
	// reduction worth" as a typed aggregate.
	Pareto []int `json:"pareto,omitempty"`
	// Cache snapshots the evaluation cache after the sweep. Counters
	// depend on cache warmth and worker interleaving (unlike Rows, which
	// are deterministic).
	Cache sim.CacheStats `json:"cache"`
	// Adaptive summarizes the successive-halving run when the spec carried
	// an adaptive block (nil for exhaustive sweeps). For adaptive outcomes
	// Rows still holds one row per grid point: the full-fidelity row where
	// the point was promoted, its probe row otherwise.
	Adaptive *AdaptiveStats `json:"adaptive,omitempty"`
}

// Best returns the lowest-cost successful row (nil if every point failed).
func (o *Outcome) Best() *Row {
	if o.BestIndex < 0 || o.BestIndex >= len(o.Rows) {
		return nil
	}
	return &o.Rows[o.BestIndex]
}

// Scrub replaces every row with its Scrubbed form (no Raw artifacts, no
// cache counters) - what the somad API stores and serves.
func (o *Outcome) Scrub() {
	for i := range o.Rows {
		o.Rows[i] = o.Rows[i].Scrubbed()
	}
}

// WriteJSON emits the outcome as indented JSON.
func (o *Outcome) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(o)
}

// Run expands the sweep and solves every point through opt.Executor (by
// default a bounded in-process pool over engine.Run). Per-point search
// failures become error rows and the sweep continues; ctx cancellation stops
// the grid promptly (in-flight points abort mid-anneal via the engine's
// context threading) and returns ctx's error, leaving any journal holding
// the committed prefix.
//
// Determinism: each point's result is a pure function of the spec (the
// engine backends are seed-deterministic and cache sharing never changes
// results), journal rows are committed strictly in point-index order, and
// row payloads are Scrubbed of cache counters - so serial, parallel,
// sharded and interrupted-then-resumed executions of one spec all produce
// byte-identical journals.
func Run(ctx context.Context, sw Sweep, opt Options) (*Outcome, error) {
	if sw.Adaptive != nil {
		return RunAdaptive(ctx, sw, opt)
	}
	r, err := newRun(sw, opt)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, len(r.pts))
	start, err := r.resume(func(path string) ([][]byte, error) {
		// An exhaustive journal's row k is exactly grid point k.
		loaded, lines, err := loadJournal(path, r.digest, len(r.pts), func(k int, row Row) bool {
			return row.Point.Index == k && k < len(r.pts)
		})
		copy(rows, loaded)
		return lines, err
	})
	if err != nil {
		return nil, err
	}
	defer r.jw.close()

	r.emit(engine.Event{Kind: "sweep-start", Iter: len(r.pts)})
	if err := r.execute(ctx, "", identitySeq(len(r.pts)), start, rows); err != nil {
		return nil, err
	}
	return r.finish(rows, start, nil), nil
}

// RunPoints solves the given grid points on the in-process pool at the given
// fidelity (FidelityProbe, FidelityFull, or "" for an exhaustive sweep) and
// returns their Scrubbed rows in the same order. This is the lease-execution
// primitive a cluster worker serves: each row is a pure function of (spec,
// index, fidelity), so rows computed here are byte-identical to the rows Run
// commits. No journal is written and no point-done events are emitted;
// indices outside the grid are an error.
func RunPoints(ctx context.Context, sw Sweep, indices []int, fidelity string, opt Options) ([]Row, error) {
	r, err := newRun(sw, opt)
	if err != nil {
		return nil, err
	}
	for _, idx := range indices {
		if idx < 0 || idx >= len(r.pts) {
			return nil, fmt.Errorf("dse: point index %d outside grid of %d", idx, len(r.pts))
		}
	}
	rows := make([]Row, len(indices))
	b := r.batch(fidelity, indices, 0)
	if err := b.Local(ctx, b.Pos, func(pos int, row Row) bool {
		rows[pos] = row.Scrubbed()
		return true
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// run is the state one sweep execution shares across its batches: the
// expanded grid, the resolved parameters, the options (Cache defaulted) and
// the open journal.
type run struct {
	sw     Sweep
	pts    []Point
	par    soma.Params
	digest string
	opt    Options
	jw     *journalWriter
}

func newRun(sw Sweep, opt Options) (*run, error) {
	pts, err := sw.Expand()
	if err != nil {
		return nil, err
	}
	_, par, err := sw.normalized()
	if err != nil {
		return nil, err
	}
	digest, err := sw.SpecSHA256()
	if err != nil {
		return nil, err
	}
	if opt.Cache == nil {
		opt.Cache = sim.NewCache(0)
	}
	return &run{sw: sw, pts: pts, par: par, digest: digest, opt: opt}, nil
}

// resume loads the journal's committed prefix through load (which returns
// the raw prefix lines) and reopens the file to append after it, returning
// how many rows were resumed. Without a journal it resumes nothing.
func (r *run) resume(load func(path string) ([][]byte, error)) (int, error) {
	if r.opt.Journal == "" {
		return 0, nil
	}
	lines, err := load(r.opt.Journal)
	if err != nil {
		return 0, err
	}
	r.jw, err = openJournal(r.opt.Journal, r.sw, r.digest, len(r.pts), lines)
	return len(lines), err
}

// emit streams one sweep-level event tagged with the sweep name.
func (r *run) emit(ev engine.Event) {
	ev.Component = r.sw.Name
	r.opt.Hooks.Emit(ev)
}

// batch builds the Batch solving seq[start:] at fidelity fid.
func (r *run) batch(fid string, seq []int, start int) *Batch {
	workers := r.sw.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	b := &Batch{Sweep: r.sw, Digest: r.digest, Fidelity: fid, Seq: seq, Obs: r.opt.Obs,
		r: r, sem: make(chan struct{}, workers)}
	for pos := start; pos < len(seq); pos++ {
		b.Pos = append(b.Pos, pos)
	}
	return b
}

// execute solves seq[start:] through the run's executor and commits each
// delivered row at rows[pos] (rows is indexed by sequence position,
// len(rows) == len(seq)). The commit is the exactly-once point of every
// executor: the first delivery of a position wins and emits its point-done
// or point-error event, repeats are ignored, and rows reach the journal
// strictly in sequence order - however the executor interleaved, an
// interrupted journal is a clean prefix, which is what makes adaptive
// journals (probe rows, then promoted rows) as resumable as exhaustive ones.
func (r *run) execute(ctx context.Context, fid string, seq []int, start int, rows []Row) error {
	var (
		mu       sync.Mutex
		done     = make([]bool, len(seq))
		frontier = start
		werr     error
	)
	deliver := func(pos int, row Row) bool {
		mu.Lock()
		fresh := !done[pos]
		if fresh {
			done[pos], rows[pos] = true, row
			for frontier < len(seq) && done[frontier] {
				if r.jw != nil && werr == nil {
					werr = r.jw.appendRow(rows[frontier].Scrubbed())
				}
				frontier++
			}
		}
		mu.Unlock()
		if fresh { // emitted outside the lock: hooks are caller code
			ev := engine.Event{Kind: "point-error", Component: r.pts[seq[pos]].Label(),
				Stage: fid, Iter: seq[pos], Err: row.Err}
			if row.Err == "" && row.Result != nil {
				ev.Kind, ev.Cost = "point-done", row.Result.Cost
			}
			r.opt.Hooks.Emit(ev)
		}
		return fresh
	}
	ex := r.opt.Executor
	if ex == nil {
		ex = pool{}
	}
	err := ex.Execute(ctx, r.batch(fid, seq, start), deliver)
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	mu.Lock()
	defer mu.Unlock()
	switch {
	case err != nil:
		return err
	case werr != nil:
		return werr
	case frontier < len(seq):
		return fmt.Errorf("dse: executor returned with points undelivered from sequence position %d of %d",
			frontier, len(seq))
	}
	return nil
}

// finish aggregates the committed rows (one per grid point, in index order)
// into the outcome and emits sweep-done.
func (r *run) finish(rows []Row, resumed int, ad *AdaptiveStats) *Outcome {
	out := &Outcome{Name: r.sw.Name, SpecSHA256: r.digest, Points: len(rows), Resumed: resumed,
		Rows: rows, BestIndex: -1, Cache: r.opt.Cache.Stats(), Adaptive: ad}
	bestCost := -1.0 // the Hooks convention for "no valid cost"
	for i, row := range rows {
		switch {
		case row.Err != "":
			out.Failed++
		case row.Result != nil && (out.BestIndex < 0 || row.Result.Cost < bestCost):
			out.BestIndex, bestCost = i, row.Result.Cost
		}
	}
	out.Pareto = CostVsBufferFront(rows)
	r.emit(engine.Event{Kind: "sweep-done", Cost: bestCost})
	return out
}

// identitySeq is the exhaustive dispatch sequence: position == point index.
func identitySeq(n int) []int {
	seq := make([]int, n)
	for i := range seq {
		seq[i] = i
	}
	return seq
}
