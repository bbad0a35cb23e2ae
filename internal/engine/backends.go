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
	in, err := req.inputs(h)
	if err != nil {
		return nil, err
	}
	return solveSoma(ctx, in)
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

// inputs resolves a single-model request's graph and hardware into the
// solve it describes.
func (r Request) inputs(h *Hooks) (solveInputs, error) {
	r = r.normalized()
	cfg, err := r.hwConfig()
	if err != nil {
		return solveInputs{}, err
	}
	g, err := r.buildGraph()
	if err != nil {
		return solveInputs{}, err
	}
	return solveInputs{
		g: g, cfg: cfg, spec: r.spec(), obj: r.Objective, par: r.Params,
		cache: r.Cache, scope: r.cacheScope(),
		hooks: h, obs: r.Obs, track: r.track(), journal: r.Journal,
	}, nil
}

// explorer builds the soma.Explorer a solve runs on. This is the single
// place the repo constructs one outside the solver's own package: cache
// scoping and the progress, telemetry, trace and journal wiring live here
// for both backends.
func (in solveInputs) explorer() *soma.Explorer {
	ex := soma.New(in.g, in.cfg, in.obj, in.par)
	if in.cache != nil {
		ex.Cache = in.cache
		ex.Scope = in.scope
	}
	ex.Progress = progressTap(in.hooks, in.spec.Framework, in.component)
	ex.Reg = in.obs.Registry()
	ex.Track = in.track
	ex.Journal = in.journal
	return ex
}

// solveSoma runs one soma exploration and assembles its payload.
func solveSoma(ctx context.Context, in solveInputs) (*report.Result, error) {
	var span *obs.Span
	if in.component != "" {
		// Scenario sub-runs nest their stage spans under a component span.
		span = in.track.Start("component:"+in.component, "scenario")
	}
	res, err := in.explorer().RunContext(ctx)
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
	in, err := req.inputs(h)
	if err != nil {
		return nil, err
	}
	res, err := cocco.Run(ctx, in.explorer())
	if err != nil {
		return nil, err
	}
	payload := report.FromCocco(in.spec, in.cfg, res)
	payload.Raw.Graph = in.g
	return payload, nil
}
