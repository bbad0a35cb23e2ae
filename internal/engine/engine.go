package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"soma/internal/graph"
	"soma/internal/hw"
	"soma/internal/models"
	"soma/internal/obs"
	"soma/internal/report"
	"soma/internal/sa"
	"soma/internal/sim"
	"soma/internal/soma"
	"soma/internal/workload"
)

// Request describes one scheduling problem: what to solve, on which
// hardware, under which objective and search parameters. Exactly one
// workload source applies, checked in this order: Scenario (a multi-model
// composition), Graph (an explicit layer graph), or Model (a registry name
// built at Batch). Zero values select the usual defaults - backend "soma",
// batch 1, the EDP objective - so the minimal request is
// {Model: "resnet50", Platform: "edge", Params: soma.DefaultParams()}.
type Request struct {
	// Backend names the registered solver ("" selects "soma").
	Backend string
	// Model is a model-zoo name (ignored when Graph or Scenario is set,
	// except as the payload's workload label for Graph requests).
	Model string
	// Batch is the model batch size (0 selects 1).
	Batch int
	// Graph optionally supplies the layer graph directly instead of
	// building Model from the registry.
	Graph *graph.Graph
	// Scenario optionally requests a multi-model composed run ("soma"
	// backend only); Model/Batch/Graph must be unset.
	Scenario *workload.Scenario
	// Platform is the named hardware preset (hw.Platforms lists them).
	Platform string
	// Config optionally overrides the platform preset with an explicit
	// hardware configuration (DSE sweeps, -dram/-buf style overrides);
	// Platform still labels the payload header.
	Config *hw.Config
	// Objective is the optimization goal Energy^N x Delay^M (the zero
	// value selects EDP, n = m = 1).
	Objective soma.Objective
	// Params are the search hyper-parameters (seed, portfolio width,
	// iteration budgets).
	Params soma.Params
	// Cache optionally shares one evaluation cache across requests (the
	// somad daemon passes its process-wide cache). The engine scopes keys
	// per (workload, batch, platform) context, so heterogeneous requests
	// never collide; nil gives the run a private cache. Sharing only
	// changes lookup cost, never the result.
	Cache sim.EvalCache
	// Obs optionally attaches an observability bundle: the registry
	// receives engine solve counters/latency plus the solver layers'
	// telemetry (soma_sa_*, sim_inc_*, sim_arena_*, sim_eval_cache_*), and the tracer
	// records stage/component spans. Pure pass-through: fixed-seed results
	// are byte-identical with Obs set or nil, except that successful runs
	// additionally carry a Result.Telemetry section (wall times).
	Obs *obs.Obs
	// TraceTrack overrides the trace track name this request's spans land
	// on ("" derives "<backend> <workload>"). Concurrent runs sharing one
	// tracer (dse sweep points) must use distinct tracks, since spans
	// within a track render as one nested timeline.
	TraceTrack string
	// Journal optionally collects the run's convergence trajectory (one
	// obs series per stage/allocator-iteration/chain). Pass-through like
	// Obs: fixed-seed results are byte-identical with Journal set or nil,
	// except that successful runs additionally carry a Result.Convergence
	// section with the journaled series and derived search diagnostics.
	// For scenario requests only the composed run is journaled.
	Journal *obs.Journal
}

// normalized fills Request defaults in place.
func (r Request) normalized() Request {
	if r.Backend == "" {
		r.Backend = "soma"
	}
	if r.Batch == 0 {
		r.Batch = 1
	}
	if r.Objective == (soma.Objective{}) {
		r.Objective = soma.EDP()
	}
	if r.Model == "" && r.Graph != nil {
		r.Model = r.Graph.Name
	}
	return r
}

// hwConfig resolves the hardware the request runs on.
func (r Request) hwConfig() (hw.Config, error) {
	if r.Config != nil {
		return *r.Config, nil
	}
	cfg, err := hw.Platform(r.Platform)
	if err != nil {
		return hw.Config{}, fmt.Errorf("engine: %w", err)
	}
	return cfg, nil
}

// spec builds the payload header naming this run. Callers pass a normalized
// request.
func (r Request) spec() report.Spec {
	return report.Spec{Model: r.Model, Batch: r.Batch, HW: r.Platform,
		Framework: r.Backend, Seed: r.Params.Seed,
		Obj: report.Objective{N: r.Objective.N, M: r.Objective.M}}
}

// buildGraph resolves the request's layer graph.
func (r Request) buildGraph() (*graph.Graph, error) {
	if r.Graph != nil {
		return r.Graph, nil
	}
	return models.Build(r.Model, r.Batch)
}

// cacheScope is the evaluation-cache namespace for one (workload, batch,
// platform) context, shared with scenario isolated runs so a scenario job
// and a plain job for the same component reuse each other's evaluations.
func cacheScope(model string, batch int, platform string) string {
	return fmt.Sprintf("%s|%d|%s|", model, batch, platform)
}

// cacheScope namespaces this request's entries in a shared cache. Beyond
// the (model, batch, platform) triple it folds in the two request fields
// that change what an evaluation means without renaming the workload: an
// explicit hardware override (digested) and an explicit graph (by object
// identity - two distinct graphs may share a label, while re-solving the
// same graph value still shares entries).
func (r Request) cacheScope() string {
	scope := cacheScope(r.Model, r.Batch, r.Platform)
	if r.Config != nil {
		sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", *r.Config)))
		scope += "cfg:" + hex.EncodeToString(sum[:8]) + "|"
	}
	if r.Graph != nil {
		scope += fmt.Sprintf("g:%p|", r.Graph)
	}
	return scope
}

// track resolves the trace track this request's spans land on. Callers pass
// a normalized request; nil-safe (a request without Obs gets a nil track,
// whose methods are no-ops).
func (r Request) track() *obs.Track {
	name := r.TraceTrack
	if name == "" {
		label := r.Model
		if r.Scenario != nil {
			label = ScenarioModelName(r.Scenario.Name)
		}
		name = r.Backend + " " + label
	}
	return r.Obs.Trace().Track(name)
}

// Backend is one pluggable solver. Solve runs the search described by the
// (normalized or raw) Request and assembles the machine-readable payload,
// streaming progress through h (which may be nil). Implementations must
// honor ctx cancellation promptly and must be deterministic for a fixed
// Params.Seed.
type Backend interface {
	Name() string
	Solve(ctx context.Context, req Request, h *Hooks) (*report.Result, error)
}

// PanicError is a panic recovered from a solve. The job or sweep it ran in
// fails with the panic value as its error; Stack is the panicking
// goroutine's stack, for the log.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Recovered wraps a value a deferred recover returned. The stack is the
// current goroutine's, which a deferred call still runs on, unless the
// value is a panic a portfolio chain raised on its own goroutine: then it
// is that chain's.
func Recovered(v any) *PanicError {
	if cp, ok := v.(*sa.ChainPanic); ok {
		return &PanicError{Value: v, Stack: cp.Stack}
	}
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// Describer is an optional Backend extension providing the one-line
// description served by registry listings (somad GET /v1/backends).
type Describer interface {
	Describe() string
}

var (
	regMu    sync.RWMutex
	registry = map[string]Backend{}
)

// Register adds a solver to the registry; registering a name twice panics
// (backend names are package-level wiring, not runtime data).
func Register(b Backend) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[b.Name()]; dup {
		panic("engine: duplicate backend " + b.Name())
	}
	registry[b.Name()] = b
}

func init() {
	Register(somaBackend{})
	Register(coccoBackend{})
}

// Get returns the named backend ("" selects "soma").
func Get(name string) (Backend, error) {
	if name == "" {
		name = "soma"
	}
	regMu.RLock()
	defer regMu.RUnlock()
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown backend %q (%v)", name, Backends())
	}
	return b, nil
}

// Backends lists the registered solver names in sorted order.
func Backends() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// BackendInfo is one registry listing entry.
type BackendInfo struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
}

// List describes every registered backend in sorted order.
func List() []BackendInfo {
	regMu.RLock()
	defer regMu.RUnlock()
	infos := make([]BackendInfo, 0, len(registry))
	for name, b := range registry {
		info := BackendInfo{Name: name}
		if d, ok := b.(Describer); ok {
			info.Description = d.Describe()
		}
		infos = append(infos, info)
	}
	sort.Slice(infos, func(a, b int) bool { return infos[a].Name < infos[b].Name })
	return infos
}

// Run solves one Request on its named backend, streaming progress through h
// (nil disables streaming). It wraps the backend's events with a "start"
// event up front and a terminal "done" (or "error") event, so every hook
// consumer sees one complete, strictly ordered stream per run.
func Run(ctx context.Context, req Request, h *Hooks) (*report.Result, error) {
	req = req.normalized()
	b, err := Get(req.Backend)
	if err != nil {
		return nil, err
	}
	if req.Scenario != nil {
		if req.Backend != "soma" {
			return nil, fmt.Errorf("engine: scenario requests run the soma backend only, got %q", req.Backend)
		}
		if req.Model != "" || req.Graph != nil {
			return nil, fmt.Errorf("engine: scenario requests must not set Model or Graph")
		}
	}
	h.Emit(Event{Kind: "start", Backend: req.Backend})
	reg := req.Obs.Registry()
	span := req.track().Start("solve", "engine").
		Arg("backend", req.Backend).Arg("model", req.Model)
	start := time.Now()
	var res *report.Result
	if req.Scenario != nil {
		res, err = solveScenario(ctx, req, h)
	} else {
		res, err = b.Solve(ctx, req, h)
	}
	wall := time.Since(start)
	reg.Histogram("engine_solve_seconds",
		"Wall time of one engine solve.", "backend", req.Backend).Observe(wall.Seconds())
	if err != nil {
		reg.Counter("engine_solves_total",
			"Engine solves by backend and outcome.",
			"backend", req.Backend, "outcome", "error").Inc()
		span.Arg("error", err.Error()).End()
		h.Emit(Event{Kind: "error", Backend: req.Backend, Err: err.Error()})
		return nil, err
	}
	reg.Counter("engine_solves_total",
		"Engine solves by backend and outcome.",
		"backend", req.Backend, "outcome", "ok").Inc()
	span.Arg("cost", res.Cost).End()
	if req.Obs != nil {
		t := &report.Telemetry{SolveWallMS: float64(wall.Nanoseconds()) / 1e6}
		if res.Raw != nil {
			t.Stage1WallMS = float64(res.Raw.Stage1WallNS) / 1e6
			t.Stage2WallMS = float64(res.Raw.Stage2WallNS) / 1e6
		}
		res.Telemetry = t
	}
	if req.Journal != nil {
		res.Convergence = obs.BuildConvergence(req.Journal, ConvergenceStages(req.Backend)...)
	}
	h.Emit(Event{Kind: "done", Backend: req.Backend, Cost: res.Cost})
	return res, nil
}

// ConvergenceStages returns the stage-preference order for a backend's
// convergence-diagnostics winner selection: the stage whose incumbent is the
// run's final cost comes first. Shared with somad's per-job convergence
// endpoint so live and final diagnostics agree.
func ConvergenceStages(backend string) []string {
	if backend == "cocco" {
		return []string{"cocco"}
	}
	return []string{"stage2", "stage1"}
}
