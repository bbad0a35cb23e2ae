package engine

import (
	"context"

	"soma/internal/cocco"
	"soma/internal/graph"
	"soma/internal/hw"
	"soma/internal/obs"
	"soma/internal/report"
	"soma/internal/sim"
	"soma/internal/soma"
)

// somaBackend is the paper's two-stage SA framework behind the "soma" name.
type somaBackend struct{}

func (somaBackend) Name() string { return "soma" }

func (somaBackend) Describe() string {
	return "SoMa two-stage simulated-annealing portfolio with Buffer Allocator (the paper's framework)"
}

func (somaBackend) Solve(ctx context.Context, req Request, h *Hooks) (*report.Result, error) {
	req = req.normalized()
	cfg, err := req.hwConfig()
	if err != nil {
		return nil, err
	}
	g, err := req.buildGraph()
	if err != nil {
		return nil, err
	}
	return solveSoma(ctx, solveInputs{
		g: g, cfg: cfg, spec: req.spec(), obj: req.Objective, par: req.Params,
		cache: req.Cache, scope: req.cacheScope(),
		hooks: h, obs: req.Obs, track: req.track(), journal: req.Journal,
	})
}

// solveInputs bundles one soma sub-solve; the scenario orchestration reuses
// it for the composed graph and every isolated component run.
type solveInputs struct {
	g     *graph.Graph
	cfg   hw.Config
	spec  report.Spec
	obj   soma.Objective
	par   soma.Params
	cache sim.EvalCache
	// scope namespaces cache keys; only applied when cache is shared
	// (a private cache holds one workload and needs none).
	scope string
	hooks *Hooks
	// component tags streamed events for scenario sub-runs.
	component string
	// obs/track carry the request's observability bundle and trace track
	// down to the solver (both may be nil).
	obs   *obs.Obs
	track *obs.Track
	// journal optionally collects the sub-solve's convergence trajectory.
	journal *obs.Journal
}

// solveSoma runs one soma exploration and assembles its payload. This is the
// single place the repo constructs a soma.Explorer outside the solver's own
// package: cache scoping, progress wiring and payload assembly live here for
// every caller.
func solveSoma(ctx context.Context, in solveInputs) (*report.Result, error) {
	ex := soma.New(in.g, in.cfg, in.obj, in.par)
	if in.cache != nil {
		ex.Cache = in.cache
		ex.Scope = in.scope
	}
	ex.Progress = progressTap(in.hooks, "soma", in.component)
	ex.Reg = in.obs.Registry()
	ex.Track = in.track
	ex.Journal = in.journal
	var span *obs.Span
	if in.component != "" {
		// Scenario sub-runs nest their stage spans under a component span.
		span = in.track.Start("component:"+in.component, "scenario")
	}
	res, err := ex.RunContext(ctx)
	span.End()
	if err != nil {
		return nil, err
	}
	payload := report.FromSoma(in.spec, in.cfg, res)
	payload.Raw.Graph = in.g
	return payload, nil
}

// coccoBackend is the ASPLOS'24 baseline behind the "cocco" name.
type coccoBackend struct{}

func (coccoBackend) Name() string { return "cocco" }

func (coccoBackend) Describe() string {
	return "Cocco baseline: order + DRAM-cut annealing under the classical double-buffer DLSA"
}

func (coccoBackend) Solve(ctx context.Context, req Request, h *Hooks) (*report.Result, error) {
	req = req.normalized()
	cfg, err := req.hwConfig()
	if err != nil {
		return nil, err
	}
	g, err := req.buildGraph()
	if err != nil {
		return nil, err
	}
	ex := cocco.New(g, cfg, req.Objective, req.Params)
	// Cocco evaluates uncached (its single annealing chain rarely revisits
	// states), so a shared Request.Cache has nothing to scope here.
	ex.Progress = progressTap(h, "cocco", "")
	ex.Reg = req.Obs.Registry()
	ex.Track = req.track()
	ex.Journal = req.Journal
	res, err := ex.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	payload := report.FromCocco(req.spec(), cfg, res)
	payload.Raw.Graph = g
	return payload, nil
}
