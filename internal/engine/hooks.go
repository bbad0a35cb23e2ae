package engine

import (
	"math"
	"sync"

	"soma/internal/sim"
	"soma/internal/soma"
)

// Event is one progress observation streamed to Hooks.Event while a Request
// is being solved. Kinds, in the order a run emits them:
//
//   - "start": the engine accepted the request and is dispatching it
//   - "stage": an annealing stage is starting (Stage, AllocIter, Budget)
//   - "improve": a portfolio chain improved its incumbent (Stage, Chain,
//     Iter, Cost)
//   - "stage-done": the stage finished with its best Cost (-1 when it found
//     nothing feasible)
//   - "cache": the cache counters' growth since the run started (after each
//     stage)
//   - "done": the request finished; Cost is the final objective value
//   - "error": the request failed or was canceled; Err has the reason
//
// Scenario requests tag sub-run events with Component: "composed" for the
// whole-scenario search, then each component's name for its isolated run.
// The same struct is the somad SSE wire format (data: payload of
// GET /v1/jobs/{id}/events).
type Event struct {
	// Seq numbers events consecutively from 0 within one run; Hooks.Emit
	// assigns it, so consumers can rely on strict ordering.
	Seq int `json:"seq"`
	// Kind discriminates the event (see above).
	Kind string `json:"kind"`
	// Backend is the solver producing the event.
	Backend string `json:"backend"`
	// Component tags scenario sub-runs (empty for single-model requests).
	Component string `json:"component,omitempty"`
	// Stage is "stage1", "stage2" or "cocco".
	Stage string `json:"stage,omitempty"`
	// AllocIter is the 1-based Buffer Allocator iteration (soma only).
	AllocIter int `json:"alloc_iter,omitempty"`
	// Budget is the stage's buffer budget in bytes (stage events only).
	Budget int64 `json:"budget_bytes,omitempty"`
	// Chain / Iter / Cost locate an improvement or a stage outcome.
	Chain int     `json:"chain,omitempty"`
	Iter  int     `json:"iter,omitempty"`
	Cost  float64 `json:"cost,omitempty"`
	// Cache is the growth of the evaluation cache's hits, misses and
	// flushes since the run started ("cache" events only), including
	// lookups by concurrent runs sharing the cache; Entries is its current
	// size.
	Cache *sim.CacheStats `json:"cache,omitempty"`
	// Err is the failure reason ("error" events only).
	Err string `json:"error,omitempty"`
}

// Hooks streams progress events from a running solve. The zero value (or a
// nil *Hooks) disables streaming. Event is invoked serialized and in Seq
// order even when portfolio chains report concurrently, so consumers need no
// locking of their own; the callback runs on solver goroutines and must not
// block for long.
type Hooks struct {
	Event func(Event)

	mu  sync.Mutex
	seq int
}

// Emit assigns the next sequence number and delivers the event. It is safe
// for concurrent use and a no-op on a nil receiver or nil Event callback.
// Non-finite costs (an infeasible incumbent) are reported as -1, keeping
// every event JSON-marshalable.
func (h *Hooks) Emit(e Event) {
	if h == nil || h.Event == nil {
		return
	}
	if math.IsInf(e.Cost, 0) || math.IsNaN(e.Cost) {
		e.Cost = -1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	e.Seq = h.seq
	h.seq++
	h.Event(e)
}

// progressTap adapts a solver's Progress callback into tagged engine events,
// following each stage completion with the run's cache counters when the
// solver reports them. A nil return (no hooks installed) keeps the solver's
// callback plumbing off entirely.
func progressTap(h *Hooks, backend, component string) func(soma.Progress) {
	if h == nil || h.Event == nil {
		return nil
	}
	return func(p soma.Progress) {
		ev := Event{Backend: backend, Component: component, Stage: p.Stage,
			AllocIter: p.AllocIter, Chain: p.Chain, Iter: p.Iter, Cost: p.Cost}
		switch p.Kind {
		case "start":
			ev.Kind = "stage"
			ev.Budget = p.Budget
		case "improve":
			ev.Kind = "improve"
		case "done":
			ev.Kind = "stage-done"
		}
		h.Emit(ev)
		if p.Cache != nil {
			h.Emit(Event{Kind: "cache", Backend: backend, Component: component, Cache: p.Cache})
		}
	}
}
