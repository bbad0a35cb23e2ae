package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"soma/internal/obs"
)

// Store is the in-memory job table. It owns every state transition so the
// queue, the workers, and the HTTP handlers never race on a Job: all reads
// go through View snapshots taken under the lock.
//
// Retention is bounded: once the table exceeds maxJobs, the oldest terminal
// jobs (and their result payloads) are evicted, so a daemon serving
// sustained traffic does not grow without bound. Live (queued/running) jobs
// are never evicted.
type Store struct {
	mu   sync.Mutex
	jobs map[string]*Job
	// order preserves submission order for listings and eviction.
	order   []string
	seq     int
	maxJobs int
}

// DefaultMaxJobs bounds the job table before old terminal jobs are evicted.
const DefaultMaxJobs = 1024

// NewStore creates an empty job table retaining at most maxJobs jobs
// (<= 0 selects DefaultMaxJobs).
func NewStore(maxJobs int) *Store {
	if maxJobs <= 0 {
		maxJobs = DefaultMaxJobs
	}
	return &Store{jobs: make(map[string]*Job), maxJobs: maxJobs}
}

// evict drops the oldest terminal jobs while the table is over its bound.
// Callers hold st.mu.
func (st *Store) evict() {
	if len(st.order) <= st.maxJobs {
		return
	}
	kept := st.order[:0]
	over := len(st.order) - st.maxJobs
	for _, id := range st.order {
		if over > 0 && st.jobs[id].State.Terminal() {
			delete(st.jobs, id)
			over--
			continue
		}
		kept = append(kept, id)
	}
	st.order = kept
}

// Add registers a new queued job (req already normalized into its run
// inputs) and returns its snapshot. Sweep jobs (in.sweep set) get the
// "sweep-" ID prefix so the two /v1 namespaces stay visually distinct while
// sharing one table, queue and worker pool.
func (st *Store) Add(req Request, in runInputs) View {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq++
	kind := "job"
	if in.sweep != nil {
		kind = "sweep"
	}
	h := &handle{in: in, done: make(chan struct{}), events: newEventLog(),
		tracer: obs.NewTracer()}
	if in.sweep == nil {
		h.journal = obs.NewJournal()
	}
	j := &Job{
		ID:      fmt.Sprintf("%s-%06d", kind, st.seq),
		State:   StateQueued,
		Req:     req,
		handle:  h,
		Created: time.Now(),
	}
	st.jobs[j.ID] = j
	st.order = append(st.order, j.ID)
	st.evict()
	return j.view()
}

// Get snapshots one job; ok is false for unknown IDs.
func (st *Store) Get(id string) (View, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return View{}, false
	}
	return j.view(), true
}

// List snapshots every job in submission order.
func (st *Store) List() []View {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]View, 0, len(st.order))
	for _, id := range st.order {
		out = append(out, st.jobs[id].view())
	}
	return out
}

// Counts tallies jobs per state for /v1/stats.
func (st *Store) Counts() map[State]int {
	st.mu.Lock()
	defer st.mu.Unlock()
	c := make(map[State]int, 5)
	for _, j := range st.jobs {
		c[j.State]++
	}
	return c
}

// handle returns a job's fixed part (its inputs, done channel, event log,
// tracer and journal); ok is false for unknown IDs. Evicted jobs lose it
// together with their results.
func (st *Store) handle(id string) (*handle, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return nil, false
	}
	return j.handle, true
}

// start transitions queued -> running, installs the cancel hook and returns
// the job's handle. It returns false when the job was canceled while still
// in the queue (the worker then just drops it).
func (st *Store) start(id string, cancel context.CancelFunc) (*handle, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok || j.State != StateQueued {
		return nil, false
	}
	j.State = StateRunning
	j.Started = time.Now()
	j.cancel = cancel
	return j.handle, true
}

// finish moves a live job into a terminal state, applying its outcome first.
func (st *Store) finish(id string, state State, errMsg string, apply func(*Job)) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok || j.State.Terminal() {
		return
	}
	if apply != nil {
		apply(j)
	}
	j.end(state, errMsg)
}

// Cancel requests cancellation. A queued job is canceled immediately; a
// running job has its context canceled and reaches the canceled state once
// the annealer notices (the returned View may still say running). Canceling
// a terminal job is a no-op that reports conflict = true.
func (st *Store) Cancel(id string) (v View, found, conflict bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return View{}, false, false
	}
	conflict = !j.cancelLive("canceled before start")
	return j.view(), true, conflict
}

// CancelAll cancels every non-terminal job: queued jobs go straight to
// canceled (closing their done channels, which unblocks waiters), running
// jobs have their contexts canceled. Used by Server.Stop.
func (st *Store) CancelAll() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, j := range st.jobs {
		j.cancelLive("canceled: server shutting down")
	}
}
