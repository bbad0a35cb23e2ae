package service

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"soma/internal/cluster"
	"soma/internal/dse"
	"soma/internal/engine"
	"soma/internal/exp"
	"soma/internal/hw"
	"soma/internal/obs"
	"soma/internal/report"
	"soma/internal/sim"
	"soma/internal/strictjson"
	"soma/internal/workload"
)

// Config sizes the service. Zero values select the defaults.
type Config struct {
	// Workers is the number of concurrent search jobs (default 1: SoMa
	// itself parallelizes across portfolio chains, so one job per core
	// group is usually right).
	Workers int
	// QueueDepth bounds the FIFO of jobs waiting for a worker; submits
	// beyond it are rejected with 503 (default 64).
	QueueDepth int
	// CacheEntries bounds the shared evaluation cache (default
	// sim.DefaultCacheEntries).
	CacheEntries int
	// MaxJobs bounds the job table; beyond it the oldest terminal jobs
	// and their results are evicted (default DefaultMaxJobs).
	MaxJobs int
	// ClusterWorker mounts the cluster lease-execution endpoints
	// (/v1/cluster/ping, /v1/cluster/lease): this somad serves leases for
	// a remote coordinator (somad -worker).
	ClusterWorker bool
	// ClusterWorkers lists worker addresses; when non-empty, sweep jobs
	// are sharded across them through internal/cluster instead of running
	// in-process (somad -workers).
	ClusterWorkers []string
	// Advertise has no effect: cluster workers evaluate on their own
	// caches, and no coordinator URL is handed to them. The field remains
	// only for the benchmark harness under bench/, which still sets it;
	// nothing else may.
	Advertise string
}

func (c Config) normalized() Config {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	return c
}

// Server is the scheduling service: a job store, a bounded FIFO queue
// drained by a fixed worker pool, and one process-wide evaluation cache
// shared by every job and cluster lease, so repeated (model, hw, budget)
// evaluations across requests are map lookups instead of simulator runs.
type Server struct {
	cfg   Config
	store *Store
	cache *sim.Cache

	// reg is the process-wide metrics registry behind GET /metrics: every
	// job's search telemetry (sa/sim/engine/dse families) lands here, plus
	// the service's own job counters. Jobs get per-job tracers but share
	// this one registry - Prometheus scraping wants process totals.
	reg     *obs.Registry
	started time.Time

	queue chan string

	// clusterWorker serves lease execution when cfg.ClusterWorker. When
	// this somad coordinates sweeps for remote workers, sweepExec leases
	// their points.
	clusterWorker *cluster.Worker
	sweepExec     dse.Executor

	// base is canceled by Stop/Shutdown, stopping workers and running
	// jobs; draining additionally rejects new submits with 503.
	base     context.Context
	cancel   context.CancelFunc
	draining atomic.Bool
	wg       sync.WaitGroup

	mux *http.ServeMux
}

// New builds the service and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.normalized()
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		store:   NewStore(cfg.MaxJobs),
		cache:   sim.NewCache(cfg.CacheEntries),
		reg:     obs.NewRegistry(),
		started: time.Now(),
		queue:   make(chan string, cfg.QueueDepth),
		base:    base,
		cancel:  cancel,
	}
	// Export the shared cache's counters up front so /metrics serves the
	// sim_eval_cache_* family before the first job arrives.
	s.cache.ExportMetrics(s.reg)
	if cfg.ClusterWorker {
		s.clusterWorker = cluster.NewWorker(s.cache, &obs.Obs{Reg: s.reg})
	}
	if len(cfg.ClusterWorkers) > 0 {
		// Sharded execution; each sweep degrades to the local pool by
		// itself when no worker answers the initial probe.
		s.sweepExec = cluster.New(cluster.Options{Workers: cfg.ClusterWorkers, Logf: log.Printf})
	}
	s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the HTTP API (see docs/api.md for the endpoint contract).
func (s *Server) Handler() http.Handler { return s.mux }

// Stop begins draining without waiting: new submits are rejected with 503
// and every queued or running job is canceled, which also unblocks ?wait=1
// handlers so an enclosing http.Server.Shutdown can complete. Call it
// before shutting the HTTP listener down, then Shutdown to wait for the
// worker pool.
func (s *Server) Stop() {
	s.draining.Store(true)
	s.cancel()
	s.store.CancelAll()
}

// Shutdown stops the service (see Stop) and waits for the worker pool to
// drain, or for ctx to expire.
func (s *Server) Shutdown(ctx context.Context) error {
	s.Stop()
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker drains the FIFO queue. Each popped job runs under its own cancel
// context derived from the server's base context, so both DELETE and
// Shutdown stop the annealer mid-chain.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.base.Done():
			return
		case id := <-s.queue:
			s.runJob(id)
		}
	}
}

// runJob executes one job end to end and records its terminal state. The
// engine's progress stream is buffered on the job's event log, which the
// GET /v1/jobs/{id}/events SSE endpoint serves live. A panic fails the job
// (see fail), and the worker goes on serving.
func (s *Server) runJob(id string) {
	ctx, cancel := context.WithCancel(s.base)
	defer cancel()
	h, ok := s.store.start(id, cancel)
	if !ok {
		return // canceled while queued
	}
	in := h.in
	kind := in.req.Backend
	if in.sweep != nil {
		kind = "sweep"
	}
	defer func() {
		if v := recover(); v != nil {
			err := engine.Recovered(v)
			s.countJob(kind, err)
			s.fail(ctx, id, err)
		}
	}()
	// Metrics aggregate across jobs in the process-wide registry, while
	// traces stay per job.
	hooks := &engine.Hooks{Event: h.events.append}
	o := &obs.Obs{Reg: s.reg, Tracer: h.tracer}
	if in.sweep != nil {
		s.runSweepJob(ctx, id, *in.sweep, hooks, o)
		return
	}
	in.req.Journal = h.journal
	res, err := s.execute(ctx, in, hooks, o)
	s.countJob(kind, err)
	if err != nil {
		s.fail(ctx, id, err)
		return
	}
	// The job table serves JSON only and stores the deterministic payload:
	// no Raw artifact trees, so retained results cost payload scalars; no
	// wall-clock Telemetry (it still reaches /metrics and the job's trace);
	// no Convergence (it has its own endpoint, GET
	// /v1/jobs/{id}/convergence). A fixed-seed job's stored payload is
	// thereby byte-identical to `soma -json`.
	res = res.Deterministic()
	s.store.finish(id, StateDone, "", func(j *Job) { j.Result = res })
}

// fail records the terminal state of a job that ended with err: canceled
// when its context was, failed otherwise. A recovered panic fails the job
// with the panic value as its error and writes the stack to the log.
func (s *Server) fail(ctx context.Context, id string, err error) {
	var pe *engine.PanicError
	switch {
	case errors.As(err, &pe):
		log.Printf("somad: job %s: %v\n%s", id, err, pe.Stack)
		s.store.finish(id, StateFailed, err.Error(), nil)
	case errors.Is(err, context.Canceled) || ctx.Err() != nil:
		s.store.finish(id, StateCanceled, "canceled", nil)
	default:
		s.store.finish(id, StateFailed, err.Error(), nil)
	}
}

// runSweepJob executes one sweep job through the dse grid runner (sharded by
// the cluster executor when somad coordinates workers) with the
// process-wide cache, streaming per-point progress onto the job's event log
// (served live by the sweeps SSE endpoint). Retained outcomes are scrubbed:
// rows lose their in-memory Raw artifacts and run-dependent cache counters,
// which makes a fixed-seed sweep's rows byte-identical to the journal
// `soma -sweep` writes for the same spec.
func (s *Server) runSweepJob(ctx context.Context, id string, sw dse.Sweep, hooks *engine.Hooks, o *obs.Obs) {
	out, err := dse.Run(ctx, sw, dse.Options{Cache: s.cache, Hooks: hooks, Obs: o, Executor: s.sweepExec})
	s.countJob("sweep", err)
	if err != nil {
		s.fail(ctx, id, err)
		return
	}
	out.Scrub()
	s.store.finish(id, StateDone, "", func(j *Job) { j.SweepOut = out })
}

// execute performs the search through the engine - the same flow as
// cmd/soma, so both paths emit byte-identical payloads for a fixed seed.
// The process-wide evaluation cache is shared across every request; the
// engine scopes its keys per (workload, batch, hw) context, so
// heterogeneous jobs never collide.
func (s *Server) execute(ctx context.Context, in runInputs, h *engine.Hooks, o *obs.Obs) (*report.Result, error) {
	req := in.req
	req.Cache = s.cache
	req.Obs = o
	return engine.Run(ctx, req, h)
}

// countJob records one finished job on the somad_jobs_total counter, labeled
// by what ran (a backend name, or "sweep") and how it ended.
func (s *Server) countJob(kind string, err error) {
	outcome := "ok"
	switch {
	case errors.Is(err, context.Canceled):
		outcome = "canceled"
	case err != nil:
		outcome = "error"
	}
	s.reg.Counter("somad_jobs_total", "Jobs completed by the worker pool.",
		"kind", kind, "outcome", outcome).Inc()
}

func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /v1/hw", s.handleHW)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /v1/backends", s.handleBackends)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/sweeps/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/convergence", s.handleConvergence)
	// Ops endpoints (docs/observability.md): Prometheus exposition plus the
	// stdlib profiling and expvar handlers. They live on the API mux, so a
	// single listener serves both planes; deployments that want them off the
	// public port can front the daemon with a path-filtering proxy.
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/dash", s.handleDash)
	if s.clusterWorker != nil {
		s.clusterWorker.Mount(mux)
	}
	s.mux = mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, apiError{Error: msg})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Stats is the GET /v1/stats payload: queue occupancy, per-state job
// counts, the shared evaluation-cache counters, process uptime, per-backend
// solve tallies and the full metrics-registry snapshot.
type Stats struct {
	Workers       int            `json:"workers"`
	QueueDepth    int            `json:"queue_depth"`
	QueueCapacity int            `json:"queue_capacity"`
	Jobs          map[State]int  `json:"jobs"`
	Cache         sim.CacheStats `json:"cache"`
	// UptimeSeconds is time since the service was constructed.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Solves counts completed jobs per backend name ("sweep" for grid
	// jobs), regardless of outcome.
	Solves map[string]int64 `json:"solves,omitempty"`
	// Metrics is the registry snapshot behind GET /metrics, as JSON for
	// clients that want counters without parsing Prometheus text.
	Metrics []obs.MetricSnapshot `json:"metrics,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	// One Counts() call serves both the per-state map and the queue depth:
	// both derive from a single pass under the store lock, so the two can
	// never contradict each other (a job counted done cannot also still be
	// pending in queue_depth, which separate len(queue) and Counts() reads
	// allowed).
	counts := s.store.Counts()
	writeJSON(w, http.StatusOK, Stats{
		Workers:       s.cfg.Workers,
		QueueDepth:    counts[StateQueued],
		QueueCapacity: cap(s.queue),
		Jobs:          counts,
		Cache:         s.cache.Stats(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		Solves:        s.solveCounts(),
		Metrics:       s.reg.Snapshot(),
	})
}

// solveCounts reads the per-backend tallies off somad_jobs_total: one series
// per (kind, outcome), summed over outcomes here.
func (s *Server) solveCounts() map[string]int64 {
	out := make(map[string]int64)
	for _, m := range s.reg.Snapshot() {
		if m.Name != "somad_jobs_total" {
			continue
		}
		for _, se := range m.Series {
			if kind, ok := labelValue(se.Labels, "kind"); ok {
				out[kind] += int64(se.Value)
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// labelValue extracts one label's value from a rendered `{k="v",...}`
// signature.
func labelValue(sig, key string) (string, bool) {
	for _, part := range strings.Split(strings.Trim(sig, "{}"), ",") {
		if k, v, ok := strings.Cut(part, "="); ok && k == key {
			return strings.Trim(v, `"`), true
		}
	}
	return "", false
}

// handleMetrics is GET /metrics: the registry in Prometheus text exposition.
// HEAD (matched by the same GET route pattern) serves the headers only, so
// scrape-endpoint probes cost no exposition rendering.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if r.Method == http.MethodHead {
		return
	}
	_ = s.reg.WritePrometheus(w)
}

// handleConvergence is GET /v1/jobs/{id}/convergence: the job's annealing
// trajectory and derived search diagnostics (obs.ConvergenceReport). Running
// jobs serve the live partial trajectory - the dashboard polls this for its
// sparklines - and finished jobs the sealed one. Sweep jobs 404: their rows
// carry per-point diagnostics summaries in the sweep result instead.
func (s *Server) handleConvergence(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	h, ok := s.store.handle(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	if h.journal == nil {
		writeError(w, http.StatusNotFound, "no convergence journal for "+id)
		return
	}
	writeJSON(w, http.StatusOK, obs.BuildConvergence(h.journal, engine.ConvergenceStages(h.in.req.Backend)...))
}

// handleTrace serves a job's span trace as Chrome trace-event JSON
// (load it at ui.perfetto.dev). Running jobs serve the partial trace
// collected so far; queued jobs serve an empty one.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	h, ok := s.store.handle(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = h.tracer.WriteJSON(w)
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"models": exp.Registry().Models})
}

// handleScenarios serves the built-in scenario library: every entry is a
// complete declarative spec a client can resubmit verbatim as scenario_spec.
func (s *Server) handleScenarios(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]workload.Scenario{"scenarios": workload.Builtins()})
}

// handleBackends serves the engine's solver registry: the framework values
// POST /v1/jobs accepts.
func (s *Server) handleBackends(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]engine.BackendInfo{"backends": engine.List()})
}

// handleEvents streams a job's engine progress events as Server-Sent Events:
// one `event:`/`data:` frame per engine.Event (data is the event's JSON),
// with the event's Seq as the SSE id. The stream replays buffered events
// first, then follows the running job live, and closes with a terminal
// `event: end` frame carrying the job's final state - on completion,
// failure, or DELETE-driven cancellation alike.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	h, ok := s.store.handle(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	next := 0
	for {
		evs, closed, wait := h.events.since(next)
		for _, e := range evs {
			data, err := json.Marshal(e)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Kind, data)
		}
		next += len(evs)
		if len(evs) > 0 {
			fl.Flush()
		}
		if closed {
			// The job can be evicted between its terminal transition and
			// this read; report the uncertainty rather than an empty state.
			state := State("unknown")
			if v, ok := s.store.Get(id); ok {
				state = v.State
			}
			fmt.Fprintf(w, "event: end\ndata: {\"state\":%q}\n\n", state)
			fl.Flush()
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		case <-s.base.Done():
			return
		}
	}
}

// HWInfo is one /v1/hw registry entry.
type HWInfo struct {
	Name        string  `json:"name"`
	Description string  `json:"description"`
	Cores       int     `json:"cores"`
	PeakTOPS    float64 `json:"peak_tops"`
	GBufBytes   int64   `json:"gbuf_bytes"`
	// DRAMBandwidth is bytes per nanosecond (== GB/s).
	DRAMBandwidth float64 `json:"dram_gbps"`
}

func hwInfo(name string, cfg hw.Config) HWInfo {
	return HWInfo{Name: name, Description: cfg.String(), Cores: cfg.Cores,
		PeakTOPS: cfg.PeakTOPS(), GBufBytes: cfg.GBufBytes,
		DRAMBandwidth: cfg.DRAMBandwidth}
}

func (s *Server) handleHW(w http.ResponseWriter, _ *http.Request) {
	infos := make([]HWInfo, 0, len(hw.Platforms()))
	for _, name := range hw.Platforms() {
		cfg, err := hw.Platform(name)
		if err != nil {
			continue
		}
		infos = append(infos, hwInfo(name, cfg))
	}
	writeJSON(w, http.StatusOK, map[string][]HWInfo{"hw": infos})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	var req Request
	if err := strictjson.Decode(http.MaxBytesReader(w, r.Body, cluster.MaxBodyBytes), &req); err != nil {
		writeBodyError(w, err)
		return
	}
	in, err := req.normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.enqueue(w, r, s.store.Add(req, in))
}

// writeBodyError answers a submission whose body failed to read or decode:
// 413 when it exceeds cluster.MaxBodyBytes, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", cluster.MaxBodyBytes))
		return
	}
	writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
}

// enqueue pushes a freshly added job onto the worker queue and writes the
// submit response: 202 with the queued view, 503 when the queue is full, or
// - with ?wait=1 - the blocking terminal result. Shared by the jobs and
// sweeps submit handlers so the queue-full and wait contracts cannot drift.
func (s *Server) enqueue(w http.ResponseWriter, r *http.Request, v View) {
	select {
	case s.queue <- v.ID:
	default:
		s.store.finish(v.ID, StateFailed, "queue full", nil)
		writeError(w, http.StatusServiceUnavailable, "job queue full, retry later")
		return
	}
	if r.URL.Query().Get("wait") != "" {
		s.waitFor(w, r, v.ID)
		return
	}
	writeJSON(w, http.StatusAccepted, v)
}

// handleSweepSubmit is POST /v1/sweeps: the body is a dse sweep spec
// (docs/dse.md). The expanded grid runs as one queued job on the shared
// worker pool and evaluation cache; per-point progress streams on
// GET /v1/sweeps/{id}/events.
func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, cluster.MaxBodyBytes))
	if err != nil {
		writeBodyError(w, err)
		return
	}
	sw, err := dse.ParseSweep(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Bound the grid before expanding it: a typoed axis cross product gets
	// its 400 instead of occupying a worker for hours, and a tiny body
	// declaring astronomically crossed axes never materializes a point slice.
	if err := sw.CheckServed(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := sw.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.enqueue(w, r, s.store.Add(Request{}, runInputs{sweep: &sw}))
}

// handleSweepList is GET /v1/sweeps: every sweep job in submission order
// (plain jobs stay on /v1/jobs and vice versa).
func (s *Server) handleSweepList(w http.ResponseWriter, _ *http.Request) {
	var sweeps []View
	for _, v := range s.store.List() {
		if v.Sweep != nil {
			sweeps = append(sweeps, v)
		}
	}
	if sweeps == nil {
		sweeps = []View{}
	}
	writeJSON(w, http.StatusOK, map[string][]View{"sweeps": sweeps})
}

// waitFor blocks a ?wait=1 submit until the job reaches a terminal state.
// If the client disconnects first, the job is canceled - the requester went
// away, so the annealer stops mid-chain instead of burning a worker slot.
func (s *Server) waitFor(w http.ResponseWriter, r *http.Request, id string) {
	h, ok := s.store.handle(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	select {
	case <-h.done:
		v, _ := s.store.Get(id)
		writeJSON(w, http.StatusOK, v)
	case <-r.Context().Done():
		s.store.Cancel(id)
	case <-s.base.Done():
		// Server draining: cancel rather than leave the handler blocked
		// (a job submitted in the instant before Stop's sweep would
		// otherwise never reach a terminal state).
		s.store.Cancel(id)
		v, _ := s.store.Get(id)
		writeJSON(w, http.StatusServiceUnavailable, v)
	}
}

// handleList is GET /v1/jobs: every plain job in submission order (sweep
// jobs are listed on /v1/sweeps).
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	var jobs []View
	for _, v := range s.store.List() {
		if v.Sweep == nil {
			jobs = append(jobs, v)
		}
	}
	if jobs == nil {
		jobs = []View{}
	}
	writeJSON(w, http.StatusOK, map[string][]View{"jobs": jobs})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := s.store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, found, conflict := s.store.Cancel(id)
	if !found {
		writeError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	if conflict {
		writeJSON(w, http.StatusConflict, v)
		return
	}
	writeJSON(w, http.StatusOK, v)
}
