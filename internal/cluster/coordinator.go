package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"soma/internal/dse"
	"soma/internal/obs"
)

// Options configures a cluster executor.
type Options struct {
	// Workers are worker base URLs ("host:port" is accepted and normalized
	// to "http://host:port"). Empty, or none reachable at a batch's
	// initial probe, degrades that batch to the local pool.
	Workers []string
	// Client performs lease and ping calls; nil gets a private default.
	Client *http.Client
	// Logf, when non-nil, receives coordinator lifecycle lines (worker
	// death, reassignment, degradation).
	Logf func(format string, args ...any)

	// LeaseTimeout bounds one lease attempt (default 10m - a paper-profile
	// point can anneal for minutes).
	LeaseTimeout time.Duration
	// PingTimeout bounds one heartbeat probe (default 2s).
	PingTimeout time.Duration
	// Heartbeat is the liveness probe period (default 2s). A worker that
	// fails a probe is marked dead and its in-flight lease is canceled and
	// reassigned; a later successful probe revives it.
	Heartbeat time.Duration
	// MaxAttempts is the remote attempts per lease before it falls back to
	// local execution (default 3).
	MaxAttempts int
}

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

func (o *Options) defaults() {
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 10 * time.Minute
	}
	if o.PingTimeout <= 0 {
		o.PingTimeout = 2 * time.Second
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 2 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
}

// NormalizeWorkerURL accepts "host:port" or a full URL and returns a base
// URL without a trailing slash.
func NormalizeWorkerURL(addr string) string {
	if addr == "" {
		return addr
	}
	u := addr
	if len(u) < 7 || (u[:7] != "http://" && (len(u) < 8 || u[:8] != "https://")) {
		u = "http://" + u
	}
	for len(u) > 0 && u[len(u)-1] == '/' {
		u = u[:len(u)-1]
	}
	return u
}

// ParseWorkers reads the -workers flag soma and somad share. It is
// overloaded: a plain integer n is a worker count (returned with no cluster
// addresses); anything else is a comma-separated cluster worker address
// list, returned with a count of 1. A value that is neither - empty, or
// only commas and blanks - is an error.
func ParseWorkers(v string) (int, []string, error) {
	if n, err := strconv.Atoi(strings.TrimSpace(v)); err == nil {
		return n, nil, nil
	}
	var addrs []string
	for _, a := range strings.Split(v, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return 0, nil, fmt.Errorf("-workers wants a number or a worker address list, got %q", v)
	}
	return 1, addrs, nil
}

// node is one worker as the coordinator sees it. alive is written by the
// heartbeat goroutine and read by the dispatch loop; every other field is
// owned by the dispatch loop alone.
type node struct {
	url   string
	alive atomic.Bool

	busy    bool
	fails   int
	nextTry time.Time

	mu     sync.Mutex
	cancel context.CancelCauseFunc
}

func (n *node) setCancel(c context.CancelCauseFunc) {
	n.mu.Lock()
	n.cancel = c
	n.mu.Unlock()
}

func (n *node) cancelInflight(cause error) {
	n.mu.Lock()
	c := n.cancel
	n.mu.Unlock()
	if c != nil {
		c(cause)
	}
}

// lease is a unit of dispatch: one point of the coordinator's dispatch
// sequence. pos is its sequence position (journal-commit order), index the
// corresponding canonical point index (what the worker computes). For
// exhaustive sweeps the two are identical; for an adaptive rung the
// sequence is the rung's own grid (all points, then the promoted subset)
// and they differ.
type lease struct {
	id         string
	pos, index int
	attempts   int
}

type result struct {
	l    *lease
	node *node // nil: local fallback execution
	row  dse.Row
	err  error
	wall time.Duration
}

// Executor is the cluster's dse.Executor: it leases each batch's points to
// somad workers over HTTP - heartbeats, per-lease timeouts, backoff and
// reassignment - and runs what no worker can take on the batch's local pool.
// Pass it as dse.Options.Executor: dse.Run keeps journaling, the in-order
// commit, progress events and aggregation, so a sharded journal is
// byte-identical to a serial one. One Executor serves any number of
// sequential or concurrent sweeps.
type Executor struct {
	opt Options

	gauges sync.Once
	mu     sync.Mutex
	active map[*coord]struct{} // batches dispatching right now
}

// New builds a cluster executor over opt.Workers.
func New(opt Options) *Executor {
	opt.defaults()
	return &Executor{opt: opt, active: make(map[*coord]struct{})}
}

// Execute implements dse.Executor. Zero reachable workers at the batch's
// initial probe hand the whole batch to its local pool - the cluster can
// never make a sweep fail that would have succeeded single-process.
func (e *Executor) Execute(ctx context.Context, b *dse.Batch, deliver func(pos int, row dse.Row) bool) error {
	if len(b.Pos) == 0 {
		return nil // a fully resumed grid, or a rung that promoted nothing
	}
	reg := b.Obs.Registry()
	e.exportGauges(reg)
	nodes := probeWorkers(ctx, e.opt)
	if len(nodes) == 0 {
		e.opt.logf("cluster: no reachable workers of %d configured; running locally", len(e.opt.Workers))
		reg.Counter("cluster_degraded_runs_total",
			"Sweep batches (a grid or an adaptive rung) run locally because no worker answered the initial probe.").Inc()
		return b.Local(ctx, b.Pos, deliver)
	}
	c := &coord{opt: &e.opt, b: b, nodes: nodes, deliver: deliver, results: make(chan result),
		reassignments: reg.Counter("cluster_lease_reassignments_total",
			"Lease dispatches retried after a worker failure or death."),
		deduped: reg.Counter("cluster_points_deduped_total",
			"Duplicate point deliveries ignored at the journal commit point.")}
	e.mu.Lock()
	e.active[c] = struct{}{}
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.active, c)
		e.mu.Unlock()
	}()
	return c.run(ctx)
}

// exportGauges registers the live-state gauges, once per executor. They read
// only the batches dispatching right now, so both drop to 0 between sweeps.
func (e *Executor) exportGauges(reg *obs.Registry) {
	if reg == nil {
		return
	}
	e.gauges.Do(func() {
		reg.GaugeFunc("cluster_leases_inflight",
			"Leases currently dispatched (remote or local).", func() float64 {
				e.mu.Lock()
				defer e.mu.Unlock()
				n := int64(0)
				for c := range e.active {
					n += c.inflight.Load()
				}
				return float64(n)
			})
		reg.GaugeFunc("cluster_workers_alive",
			"Workers currently passing heartbeats.", func() float64 {
				e.mu.Lock()
				defer e.mu.Unlock()
				alive := map[string]bool{}
				for c := range e.active {
					for _, n := range c.nodes {
						if n.alive.Load() {
							alive[n.url] = true
						}
					}
				}
				return float64(len(alive))
			})
	})
}

// probeWorkers pings every configured worker once in parallel, returning the
// reachable ones (all of them stay candidates for revival via heartbeat, but
// an initial probe finding zero is the degradation signal).
func probeWorkers(ctx context.Context, opt Options) []*node {
	type probe struct {
		n  *node
		ok bool
	}
	ch := make(chan probe, len(opt.Workers))
	for _, addr := range opt.Workers {
		url := NormalizeWorkerURL(addr)
		if url == "" {
			ch <- probe{}
			continue
		}
		go func(url string) {
			n := &node{url: url}
			ok := pingWorker(ctx, opt.Client, url, opt.PingTimeout)
			n.alive.Store(ok)
			ch <- probe{n: n, ok: ok}
		}(url)
	}
	var nodes []*node
	for range opt.Workers {
		p := <-ch
		if p.n == nil {
			continue
		}
		if !p.ok {
			opt.logf("cluster: worker %s unreachable at probe", p.n.url)
		}
		nodes = append(nodes, p.n)
	}
	alive := 0
	for _, n := range nodes {
		if n.alive.Load() {
			alive++
		}
	}
	if alive == 0 {
		return nil
	}
	return nodes
}

func pingWorker(ctx context.Context, hc *http.Client, url string, timeout time.Duration) bool {
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, url+PathPing, nil)
	if err != nil {
		return false
	}
	resp, err := hc.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// coord is the dispatch-loop state for one batch. Local fallback goroutines
// use b, put and results, the executor's gauges read nodes and inflight, and
// node notes its own sharing; everything else is owned by the single run()
// goroutine.
type coord struct {
	opt     *Options
	b       *dse.Batch
	nodes   []*node
	deliver func(pos int, row dse.Row) bool

	results chan result
	locals  sync.WaitGroup // local fallback goroutines

	inflight      atomic.Int64
	reassignments *obs.Counter
	deduped       *obs.Counter
}

// put delivers one row, counting a duplicate: at-least-once dispatch makes
// double delivery legal, and dse's commit keeps the first.
func (c *coord) put(pos int, row dse.Row) bool {
	if !c.deliver(pos, row) {
		c.deduped.Inc()
		return false
	}
	return true
}

// run drives dispatch until every lease has delivered or ctx dies.
func (c *coord) run(ctx context.Context) error {
	opt, b := c.opt, c.b
	runCtx, stop := context.WithCancel(ctx)
	defer func() {
		stop()
		c.locals.Wait()
	}()

	// One lease per pending position - the finest-grained rebalancing and
	// dedup - so lease boundaries never depend on worker behavior.
	var pending []*lease
	for _, p := range b.Pos {
		id := fmt.Sprintf("lease-%04d", p)
		if b.Fidelity != "" {
			id = fmt.Sprintf("lease-%s-%04d", b.Fidelity, p)
		}
		pending = append(pending, &lease{id: id, pos: p, index: b.Seq[p]})
	}
	left := len(pending)

	// Heartbeats: a failed probe kills the node's in-flight lease with a
	// reassignment cause; a later success revives the node.
	for _, n := range c.nodes {
		go func(n *node) {
			t := time.NewTicker(opt.Heartbeat)
			defer t.Stop()
			for {
				select {
				case <-runCtx.Done():
					return
				case <-t.C:
					ok := pingWorker(runCtx, opt.Client, n.url, opt.PingTimeout)
					was := n.alive.Swap(ok)
					if was && !ok {
						opt.logf("cluster: worker %s failed heartbeat; reassigning its lease", n.url)
						n.cancelInflight(fmt.Errorf("cluster: worker %s heartbeat lost", n.url))
					}
					if !was && ok {
						opt.logf("cluster: worker %s revived", n.url)
					}
				}
			}
		}(n)
	}

	rng := rand.New(rand.NewSource(1)) // jitter only; never affects results
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()

	for left > 0 {
		// Assign pending leases to idle, alive, backoff-eligible nodes.
		now := time.Now()
		anyAlive := false
		for _, n := range c.nodes {
			if n.alive.Load() {
				anyAlive = true
				if !n.busy && !now.Before(n.nextTry) && len(pending) > 0 {
					l := pending[0]
					pending = pending[1:]
					c.dispatch(runCtx, n, l)
				}
			}
		}
		if !anyAlive {
			// Every worker is dead right now: drain pending locally.
			// Later requeues re-check, so revived workers resume serving.
			for len(pending) > 0 {
				l := pending[0]
				pending = pending[1:]
				c.reassignments.Inc()
				c.toLocal(runCtx, l, "no workers alive")
			}
		}

		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			// Re-check aliveness and backoff windows.
		case res := <-c.results:
			c.inflight.Add(-1)
			switch {
			case res.err != nil && ctx.Err() != nil:
				return ctx.Err()
			case res.node == nil && res.err != nil:
				// Local fallback failed: nothing further to degrade to,
				// so the sweep fails loudly.
				return fmt.Errorf("cluster: local execution of %s: %w", res.l.id, res.err)
			case res.node == nil:
				left-- // the local pool delivered the rows itself
			case res.err != nil:
				res.node.busy = false
				res.node.setCancel(nil)
				res.l.attempts++
				res.node.fails++
				backoff := time.Duration(100<<min(res.node.fails, 6)) * time.Millisecond
				backoff += time.Duration(rng.Int63n(int64(backoff)/2 + 1))
				res.node.nextTry = time.Now().Add(backoff)
				c.reassignments.Inc()
				opt.logf("cluster: %s failed on %s (attempt %d): %v",
					res.l.id, res.node.url, res.l.attempts, res.err)
				if res.l.attempts >= opt.MaxAttempts {
					c.toLocal(runCtx, res.l, "attempts exhausted")
				} else {
					pending = append(pending, res.l)
				}
			default:
				res.node.busy = false
				res.node.setCancel(nil)
				res.node.fails = 0
				b.Obs.Registry().Histogram("cluster_point_seconds",
					"Per-point wall time of leases by worker.", "worker", res.node.url).
					Observe(res.wall.Seconds())
				c.put(res.l.pos, res.row)
				left--
			}
		}
	}
	return nil
}

// toLocal runs a lease on the batch's local pool, which delivers its rows
// directly; the completion comes back through results. Callers count the
// reassignment (the failure paths already have).
func (c *coord) toLocal(ctx context.Context, l *lease, why string) {
	c.opt.logf("cluster: %s running locally (%s)", l.id, why)
	c.inflight.Add(1)
	c.locals.Add(1)
	go func() {
		defer c.locals.Done()
		err := c.b.Local(ctx, []int{l.pos}, c.put)
		select {
		case c.results <- result{l: l, err: err}:
		case <-ctx.Done():
		}
	}()
}

// dispatch launches one remote lease attempt.
func (c *coord) dispatch(ctx context.Context, n *node, l *lease) {
	n.busy = true
	c.inflight.Add(1)
	lctx, cancel := context.WithCancelCause(ctx)
	n.setCancel(cancel)
	c.b.Started(l.pos)
	go func() {
		defer cancel(nil)
		start := time.Now()
		row, err := c.doLease(lctx, n, l)
		select {
		case c.results <- result{l: l, node: n, row: row, err: err, wall: time.Since(start)}:
		case <-ctx.Done():
		}
	}()
}

// doLease performs one lease HTTP round-trip and validates the response
// shape (one row, for the right point and fidelity).
func (c *coord) doLease(ctx context.Context, n *node, l *lease) (dse.Row, error) {
	tctx, cancel := context.WithTimeout(ctx, c.opt.LeaseTimeout)
	defer cancel()
	var resp LeaseResponse
	err := postJSON(tctx, c.opt.Client, n.url+PathLease, LeaseRequest{
		LeaseID: l.id, Spec: c.b.Sweep, SpecSHA256: c.b.Digest,
		Indices: []int{l.index}, Fidelity: c.b.Fidelity}, &resp)
	if err != nil {
		if cause := context.Cause(ctx); cause != nil && ctx.Err() != nil {
			return dse.Row{}, cause
		}
		return dse.Row{}, err
	}
	if len(resp.Rows) != 1 {
		return dse.Row{}, fmt.Errorf("cluster: %s returned %d rows, want 1", n.url, len(resp.Rows))
	}
	row := resp.Rows[0]
	if row.Point.Index != l.index {
		return dse.Row{}, fmt.Errorf("cluster: %s returned a row for point %d (want %d)",
			n.url, row.Point.Index, l.index)
	}
	if row.Fidelity != c.b.Fidelity {
		return dse.Row{}, fmt.Errorf("cluster: %s returned a fidelity %q row for a %q lease (worker version skew?)",
			n.url, row.Fidelity, c.b.Fidelity)
	}
	return row, nil
}
