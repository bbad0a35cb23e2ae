package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"soma/internal/dse"
	"soma/internal/engine"
	"soma/internal/hw"
	"soma/internal/obs"
	"soma/internal/report"
	"soma/internal/service"
)

// somad is one in-process somad daemon serving its HTTP API on loopback.
type somad struct {
	url    string
	svc    *service.Server
	hs     *http.Server
	served chan struct{}
}

func listenLoopback() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func serveSomad(ln net.Listener, url string, cfg service.Config) *somad {
	s := &somad{url: url, svc: service.New(cfg), served: make(chan struct{})}
	s.hs = &http.Server{Handler: s.svc.Handler()}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // always ErrServerClosed once close runs
	}()
	return s
}

func startSomad(cfg service.Config) (*somad, error) {
	ln, url, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	return serveSomad(ln, url, cfg), nil
}

// close stops the daemon: cancel its jobs, close the listener and every
// connection, then wait for the worker pool. It closes rather than shuts the
// HTTP server down because every request is over by then, and Shutdown waits
// five seconds on any connection a client dialed but never used.
func (s *somad) close() error {
	s.svc.Stop()
	err := s.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = errors.Join(err, s.svc.Shutdown(ctx))
	<-s.served
	return err
}

func closeAll(nodes []*somad) error {
	var errs []error
	for _, n := range nodes {
		errs = append(errs, n.close())
	}
	return errors.Join(errs...)
}

// startPlain starts one somad that runs sweeps on its local dse pool.
func startPlain() ([]*somad, error) {
	s, err := startSomad(service.Config{})
	if err != nil {
		return nil, err
	}
	return []*somad{s}, nil
}

// startCluster starts a coordinator somad (first in the returned slice) and
// two cluster-worker somads. The coordinator advertises itself as the
// workers' remote evaluation-cache tier.
func startCluster() ([]*somad, error) {
	var nodes []*somad
	var workers []string
	for i := 0; i < 2; i++ {
		w, err := startSomad(service.Config{ClusterWorker: true})
		if err != nil {
			return nil, errors.Join(err, closeAll(nodes))
		}
		nodes = append(nodes, w)
		workers = append(workers, w.url)
	}
	ln, url, err := listenLoopback()
	if err != nil {
		return nil, errors.Join(err, closeAll(nodes))
	}
	coord := serveSomad(ln, url, service.Config{ClusterWorkers: workers, Advertise: url})
	return append([]*somad{coord}, nodes...), nil
}

// client is the benchmark's HTTP client. Workloads use at most two client
// threads, so two connections per daemon suffice.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}}
}

func (c *client) call(ctx context.Context, method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort, for the error text only
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: decoding response: %w", method, url, err)
	}
	return nil
}

// submit posts a job or sweep with ?wait=1 and returns its terminal view,
// which must be done.
func (c *client) submit(ctx context.Context, url, path string, body any) (*service.View, error) {
	var v service.View
	if err := c.call(ctx, http.MethodPost, url+path+"?wait=1", body, &v); err != nil {
		return nil, err
	}
	if v.State != service.StateDone {
		return nil, fmt.Errorf("%s ended %s: %s", v.ID, v.State, v.Error)
	}
	return &v, nil
}

func (c *client) stats(ctx context.Context, url string) (*service.Stats, error) {
	var st service.Stats
	if err := c.call(ctx, http.MethodGet, url+"/v1/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// engineTime reads the engine's solve count and summed solve wall time off a
// daemon's /v1/stats registry snapshot.
func engineTime(st *service.Stats) (solves int64, seconds float64) {
	return histCount(st.Metrics, "engine_solve_seconds"), family(st.Metrics, "engine_solve_seconds", "")
}

// runSweep sends the Fig. 7 co-design grid through somad twice per pass:
// first to a plain somad, whose local dse pool runs the points, then to a
// coordinator somad that leases them to two cluster-worker somads. Every
// request goes to freshly started daemons, so each repetition starts from a
// cold evaluation cache and sees only the reuse within one sweep. The run's
// seed shuffles the order of each axis's values, and so the order in which
// the pool and the leases visit the grid. Set-up starts a somad and sends it
// a one-point sweep.
func runSweep(ctx context.Context, rc runConfig, sc scale, tr *obs.Tracer) (*outcome, error) {
	c := newClient()
	defer c.hc.CloseIdleConnections()
	search := sc.search
	var seeds []int64
	for i := 0; i < sc.sweepSeeds; i++ {
		seeds = append(seeds, searchSeed(i))
	}
	rng := rand.New(rand.NewSource(rc.seed))
	spec := dse.Sweep{Name: "fig7", Models: shuffled(rng, sc.sweepModels), GBufMB: shuffled(rng, sc.sweepGBufMB),
		Objectives: shuffled(rng, sc.sweepObjectives), Seeds: shuffled(rng, seeds), Search: &search, Workers: 2}
	pts, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	warm := dse.Sweep{Name: "warm-up", Models: []string{sc.warmup}, Seeds: []int64{searchSeed(0)}, Search: &search}
	paths := []struct {
		key   string
		start func() ([]*somad, error)
	}{{"local", startPlain}, {"sharded", startCluster}}

	_, setup, err := timeSetup(sc.setupReps, func() (struct{}, error) {
		nodes, err := startPlain()
		if err != nil {
			return struct{}{}, err
		}
		_, err = c.submit(ctx, nodes[0].url, "/v1/sweeps", warm)
		return struct{}{}, errors.Join(err, closeAll(nodes))
	}, func(struct{}) error { return nil })
	if err != nil {
		return nil, err
	}

	o := &outcome{setup: setup, edp: map[string]float64{}}
	track := tr.Track("sweep-fig7")
	type swept struct {
		path string
		out  *dse.Outcome
	}
	var sweeps []swept
	o.phase.start()
	closedLoop(rc.seconds, 1, len(paths), func(_, i int) {
		p := paths[i%len(paths)]
		o.attempted += len(pts)
		nodes, err := p.start()
		if err != nil {
			o.fail(len(pts), "%s: %v", p.key, err)
			return
		}
		span := track.Start("POST /v1/sweeps", "bench").Arg("path", p.key)
		start := time.Now()
		v, err := c.submit(ctx, nodes[0].url, "/v1/sweeps", spec)
		wall := time.Since(start)
		span.End()
		if err == nil && rc.traced {
			err = o.phase.addEngineTime(ctx, c, nodes)
		}
		if err = errors.Join(err, closeAll(nodes)); err != nil {
			o.fail(len(pts), "%s: %v", p.key, err)
			return
		}
		o.ops = append(o.ops, opRecord{key: p.key, wall: wall})
		o.phase.busyS += wall.Seconds() * float64(spec.Workers)
		if p.key == "local" {
			// The local pool's shared cache; a sharded sweep's lookups are
			// split across worker L1s and the coordinator's L2.
			o.phase.hits += v.SweepResult.Cache.Hits
			o.phase.misses += v.SweepResult.Cache.Misses
		}
		sweeps = append(sweeps, swept{p.key, v.SweepResult})
	})
	o.phase.stop()
	if len(sweeps) == 0 {
		return o, nil
	}

	// Local and sharded execution must produce byte-identical rows, with no
	// error rows, and every row must pass the payload checks.
	ref := sweeps[0].out.Rows
	refJSON, err := json.Marshal(ref)
	if err != nil {
		return nil, err
	}
	for i, r := range ref {
		if r.Result == nil {
			o.fail(1, "row %d: %s", i, r.Err)
			continue
		}
		if err := checkPayload(r.Result); err != nil {
			o.fail(1, "row %d: %v", i, err)
		}
		o.edp[r.Point.Label()] = edp(r.Result)
	}
	for _, s := range sweeps[1:] {
		got, err := json.Marshal(s.out.Rows)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, refJSON) {
			o.fail(len(pts), "%s sweep rows differ from the first local sweep's", s.path)
		}
	}

	if rc.traced {
		// The solver layers are measured on direct solves of the grid's
		// EDP points at search seed 1, which must reproduce the sweep's
		// rows exactly.
		o.probe = newProbe(tr, "sweep-fig7")
		par, err := search.Params()
		if err != nil {
			return nil, err
		}
		for i, pt := range pts {
			if pt.Objective != (report.Objective{N: 1, M: 1}) || pt.Seed != searchSeed(0) {
				continue
			}
			req, err := pt.Request(par)
			if err != nil {
				return nil, err
			}
			if err := probeSolve(ctx, o, req, ref[i].Result); err != nil {
				return nil, err
			}
		}
	}
	return o, nil
}

// addEngineTime adds the engine solve counts and wall time the daemons'
// registries accumulated.
func (p *phase) addEngineTime(ctx context.Context, c *client, nodes []*somad) error {
	for _, n := range nodes {
		st, err := c.stats(ctx, n.url)
		if err != nil {
			return err
		}
		solves, secs := engineTime(st)
		p.solves += int(solves)
		p.engineS += secs
	}
	return nil
}

// probeSolve runs one direct probe solve, checks it, replays its winner and
// requires it to reproduce want, the answer the workload got over HTTP.
func probeSolve(ctx context.Context, o *outcome, req engine.Request, want *report.Result) error {
	cfg, err := hw.Platform(req.Platform)
	if err != nil {
		return err
	}
	if req.Config != nil {
		cfg = *req.Config
	}
	o.attempted++
	res, err := o.probe.solve(ctx, req)
	if err != nil {
		return err
	}
	if err := checkSolve(res, cfg); err != nil {
		o.fail(1, "direct %s: %v", req.Model, err)
	} else if want != nil {
		if err := sameAnswer(res, want); err != nil {
			o.fail(1, "direct %s disagrees with somad: %v", req.Model, err)
		}
	}
	return o.probe.replay(res, cfg)
}

// runWarm is a closed loop of two clients posting jobs to one somad whose
// shared evaluation cache set-up has already warmed with every request in
// the pool, so the time goes to keys, the engine's annealing loop over cache
// hits, the job store, HTTP and the per-job tracer and journal.
func runWarm(ctx context.Context, rc runConfig, sc scale, tr *obs.Tracer) (*outcome, error) {
	const clients = 2
	c := newClient()
	defer c.hc.CloseIdleConnections()
	type poolReq struct {
		key string
		req service.Request
	}
	var pool []poolReq
	for i := 0; i < sc.warmSeeds; i++ {
		for _, model := range sc.warmModels {
			search := sc.search
			search.Seed = searchSeed(i)
			pool = append(pool, poolReq{fmt.Sprintf("%s/s%d", model, search.Seed),
				service.Request{Model: model, Batch: 1, HW: "edge", Params: &search}})
		}
	}
	o := &outcome{edp: map[string]float64{}}
	var mu sync.Mutex // guards o and the maps the client goroutines fill

	var cold map[string]*report.Result
	srv, setup, err := timeSetup(sc.setupReps, func() (*somad, error) {
		s, err := startSomad(service.Config{Workers: clients})
		if err != nil {
			return nil, err
		}
		answers := map[string]*report.Result{}
		var errs []error
		closedLoop(0, clients, len(pool), func(_, i int) {
			p := pool[i]
			v, err := c.submit(ctx, s.url, "/v1/jobs", p.req)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", p.key, err))
				return
			}
			answers[p.key] = v.Result
		})
		if err := errors.Join(errs...); err != nil {
			return nil, errors.Join(err, s.close())
		}
		if cold == nil {
			cold = answers
		}
		for k, want := range cold {
			if err := sameAnswer(answers[k], want); err != nil {
				o.fail(1, "set-up %s: %v", k, err)
			}
		}
		return s, nil
	}, (*somad).close)
	if err != nil {
		return nil, err
	}
	o.setup = setup
	for k, res := range cold {
		if err := checkPayload(res); err != nil {
			o.fail(1, "cold %s: %v", k, err)
		}
		o.edp[k] = edp(res)
	}

	before, err := c.stats(ctx, srv.url)
	if err != nil {
		return nil, errors.Join(err, srv.close())
	}
	tracks := make([]*obs.Track, clients)
	for i := range tracks {
		tracks[i] = tr.Track(fmt.Sprintf("somad-warm client-%d", i))
	}
	o.phase.start()
	closedLoop(rc.seconds, clients, 2*len(pool), func(client, i int) {
		p := pool[bagIndex(rc.seed, len(pool), i)]
		span := tracks[client].Start("POST /v1/jobs", "bench").Arg("request", p.key)
		start := time.Now()
		v, err := c.submit(ctx, srv.url, "/v1/jobs", p.req)
		wall := time.Since(start)
		span.End()
		mu.Lock()
		defer mu.Unlock()
		o.attempted++
		if err == nil {
			err = sameAnswer(v.Result, cold[p.key])
		}
		if err != nil {
			o.fail(1, "%s: %v", p.key, err)
			return
		}
		o.ops = append(o.ops, opRecord{key: p.key, wall: wall})
		o.phase.busyS += wall.Seconds()
	})
	o.phase.stop()
	after, err := c.stats(ctx, srv.url)
	if err = errors.Join(err, srv.close()); err != nil {
		return nil, err
	}
	n0, s0 := engineTime(before)
	n1, s1 := engineTime(after)
	o.phase.solves, o.phase.engineS = int(n1-n0), s1-s0
	o.phase.hits = after.Cache.Hits - before.Cache.Hits
	o.phase.misses = after.Cache.Misses - before.Cache.Misses

	if rc.traced {
		// Direct solves of each model at the first seed stand in for the
		// solver layers; they must reproduce the daemon's answers.
		o.probe = newProbe(tr, "somad-warm")
		for _, p := range pool[:len(sc.warmModels)] {
			req, err := solveRequest(sc, p.req.Model, p.req.Params.Seed)
			if err != nil {
				return nil, err
			}
			if err := probeSolve(ctx, o, req, cold[p.key]); err != nil {
				return nil, err
			}
		}
	}
	return o, nil
}
