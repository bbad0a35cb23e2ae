package service

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"soma/internal/dse"
	"soma/internal/engine"
	"soma/internal/hw"
	"soma/internal/models"
	"soma/internal/obs"
	"soma/internal/report"
	"soma/internal/soma"
	"soma/internal/workload"
)

// State is a job's lifecycle position. Transitions are strictly
// queued -> running -> {done, failed, canceled}, except that a queued job may
// jump straight to canceled (deleted before a worker picked it up).
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether no further transition can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Request is the POST /v1/jobs body: which workload to schedule on which
// platform, under what objective and search parameters. Zero values select
// the CLI defaults, so {"model":"resnet50","batch":1,"hw":"edge"} is a
// complete request. A multi-model job instead sets exactly one of Scenario
// (a built-in name from GET /v1/scenarios) or ScenarioSpec (an inline
// declarative spec, schema in docs/workloads.md); scenario jobs leave
// model/batch empty and run the soma framework.
type Request struct {
	Model string `json:"model,omitempty"`
	Batch int    `json:"batch,omitempty"`
	HW    string `json:"hw,omitempty"`
	// Framework picks the scheduler: soma (default) or cocco.
	Framework string `json:"framework,omitempty"`
	// Scenario names a built-in multi-model scenario.
	Scenario string `json:"scenario,omitempty"`
	// ScenarioSpec is an inline scenario spec (workload.ParseSpec schema).
	ScenarioSpec json.RawMessage `json:"scenario_spec,omitempty"`
	// Objective defaults to EDP (n = m = 1).
	Objective *report.Objective `json:"objective,omitempty"`
	Params    *ParamsRequest    `json:"params,omitempty"`
}

// ParamsRequest overrides individual search hyper-parameters on top of the
// named profile, mirroring the cmd/soma flags. It is the same search block
// a dse sweep spec carries, resolved by the same rule (dse.Search.Params),
// so job and sweep parameter semantics cannot drift.
type ParamsRequest = dse.Search

// runInputs are the resolved execution inputs of one job: either the fully
// normalized engine request of a plain scheduling job, or the sweep spec of
// a /v1/sweeps grid job (the server adds its shared cache and a hooks stream
// when a worker picks the job up).
type runInputs struct {
	req   engine.Request
	sweep *dse.Sweep
}

// normalize fills defaults and validates the request against the model,
// hardware and scenario registries, returning the resolved engine request.
// It is called at submit time so bad requests fail with 400 instead of a
// failed job.
func (r *Request) normalize() (in runInputs, err error) {
	scenario := r.Scenario != "" || len(r.ScenarioSpec) > 0
	switch {
	case scenario && (r.Model != "" || r.Batch != 0):
		return in, fmt.Errorf("scenario jobs must not set model/batch")
	case scenario && r.Scenario != "" && len(r.ScenarioSpec) > 0:
		return in, fmt.Errorf("set either scenario or scenario_spec, not both")
	case !scenario:
		if r.Batch == 0 {
			r.Batch = 1
		}
		if r.Model == "" || !models.Known(r.Model) {
			return in, fmt.Errorf("unknown model %q (GET /v1/models lists them)", r.Model)
		}
		if r.Batch < 0 {
			return in, fmt.Errorf("batch must be positive, got %d", r.Batch)
		}
	}
	if r.HW == "" {
		r.HW = "edge"
	}
	if _, err := hw.Platform(r.HW); err != nil {
		return in, fmt.Errorf("unknown hw %q (GET /v1/hw lists them)", r.HW)
	}
	if r.Framework == "" {
		r.Framework = "soma"
	}
	// Any registered engine backend is a valid framework, so solvers added
	// via engine.Register are accepted here with no service change.
	if _, err := engine.Get(r.Framework); err != nil {
		return in, fmt.Errorf("unknown framework %q (GET /v1/backends lists them)", r.Framework)
	}
	if scenario && r.Framework != "soma" {
		return in, fmt.Errorf("scenario jobs run the soma framework only")
	}
	if r.Objective == nil {
		r.Objective = &report.Objective{N: 1, M: 1}
	}
	p := r.Params
	if p == nil {
		p = &ParamsRequest{}
	}
	par, err := p.Params()
	if err != nil {
		return in, err
	}
	in.req = engine.Request{
		Backend:   r.Framework,
		Platform:  r.HW,
		Objective: soma.Objective{N: r.Objective.N, M: r.Objective.M},
		Params:    par,
	}
	if scenario {
		var sc workload.Scenario
		if r.Scenario != "" {
			sc, err = workload.Builtin(r.Scenario)
			if err != nil {
				return in, fmt.Errorf("%v (GET /v1/scenarios lists them)", err)
			}
		} else if sc, err = workload.ParseSpec(r.ScenarioSpec); err != nil {
			return in, err
		}
		in.req.Scenario = &sc
		return in, nil
	}
	in.req.Model = r.Model
	in.req.Batch = r.Batch
	return in, nil
}

// Job is one scheduling request (or sweep) moving through the queue. All
// fields but the handle are guarded by the Store's lock; handlers only ever
// see View snapshots.
type Job struct {
	ID    string
	State State
	Req   Request
	*handle

	Result *report.Result
	// SweepOut is the sweep-job counterpart of Result (rows scrubbed of
	// in-memory artifacts and run-dependent cache counters).
	SweepOut *dse.Outcome
	Err      string

	Created  time.Time
	Started  time.Time
	Finished time.Time

	// cancel aborts the running search; nil until a worker starts the job.
	cancel context.CancelFunc
}

// handle is the part of a job that Add fixes for the job's lifetime: its
// run inputs, its done channel and its observers. Store.handle hands it out,
// and holders read it without the store's lock.
type handle struct {
	// in holds the resolved run inputs (normalize ran at submit).
	in runInputs
	// done is closed on the transition into a terminal state, so waiters
	// (POST ?wait=1, tests) can block without polling.
	done chan struct{}
	// events buffers the engine's progress stream for the SSE endpoint;
	// closed together with done.
	events *eventLog
	// tracer collects the job's solve spans for GET /v1/jobs/{id}/trace.
	// Created at submission, so reading a running job serves the partial
	// trace; the tracer itself is concurrency-safe.
	tracer *obs.Tracer
	// journal collects the job's annealing trajectory for
	// GET /v1/jobs/{id}/convergence (plain jobs only - sweep rows carry
	// their own diagnostics summaries instead). Created at submission like
	// the tracer, so a running job serves its live partial trajectory; the
	// journal decimates itself to a bounded sample count per chain.
	journal *obs.Journal
}

// end moves the job into a terminal state and wakes its waiters and event
// readers. The caller holds the store's lock and has checked that the job
// is live.
func (j *Job) end(state State, errMsg string) {
	j.State = state
	j.Err = errMsg
	j.Finished = time.Now()
	j.cancel = nil
	j.events.close()
	close(j.done)
}

// cancelLive cancels a live job: a queued one ends canceled with errMsg, a
// running one has its context canceled and ends once its worker notices. It
// reports false for a terminal job. The caller holds the store's lock.
func (j *Job) cancelLive(errMsg string) bool {
	switch j.State {
	case StateQueued:
		j.end(StateCanceled, errMsg)
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	default:
		return false
	}
	return true
}

// View is the JSON shape of a job served by the API. Plain jobs carry
// request/result; sweep jobs carry sweep/sweep_result instead.
type View struct {
	ID      string   `json:"id"`
	State   State    `json:"state"`
	Request *Request `json:"request,omitempty"`
	// Sweep is the submitted grid spec (sweep jobs only).
	Sweep *dse.Sweep `json:"sweep,omitempty"`
	Error string     `json:"error,omitempty"`
	// Result is present once State == done.
	Result *report.Result `json:"result,omitempty"`
	// SweepResult is the sweep-job counterpart of Result.
	SweepResult *dse.Outcome `json:"sweep_result,omitempty"`
	CreatedAt   string       `json:"created_at"`
	StartedAt   string       `json:"started_at,omitempty"`
	FinishedAt  string       `json:"finished_at,omitempty"`
}

func (j *Job) view() View {
	v := View{ID: j.ID, State: j.State, Error: j.Err,
		Result: j.Result, SweepResult: j.SweepOut,
		CreatedAt: j.Created.UTC().Format(time.RFC3339Nano)}
	if j.in.sweep != nil {
		v.Sweep = j.in.sweep
	} else {
		req := j.Req
		v.Request = &req
	}
	if !j.Started.IsZero() {
		v.StartedAt = j.Started.UTC().Format(time.RFC3339Nano)
	}
	if !j.Finished.IsZero() {
		v.FinishedAt = j.Finished.UTC().Format(time.RFC3339Nano)
	}
	return v
}
