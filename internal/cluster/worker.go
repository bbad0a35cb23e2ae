package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"soma/internal/dse"
	"soma/internal/obs"
	"soma/internal/sim"
)

// Worker serves lease execution: a somad started with -worker mounts one on
// its mux. Workers are stateless between leases (every lease carries its
// full spec), but evaluate on their process's lifetime evaluation cache -
// engine cache scopes already namespace keys per (workload, batch,
// platform, hw) context, so entries are shareable across leases, sweeps and
// the process's own jobs.
type Worker struct {
	// Obs receives worker telemetry (cluster_worker_* plus everything the
	// solvers emit). Nil disables it.
	Obs *obs.Obs

	cache *sim.Cache

	leases atomic.Int64
}

// NewWorker builds a worker that evaluates every lease on cache, which the
// caller owns and exports.
func NewWorker(cache *sim.Cache, o *obs.Obs) *Worker {
	return &Worker{Obs: o, cache: cache}
}

// Mount registers the worker endpoints on mux.
func (w *Worker) Mount(mux *http.ServeMux) {
	mux.HandleFunc(PathPing, w.handlePing)
	mux.HandleFunc(PathLease, w.handleLease)
}

func (w *Worker) handlePing(rw http.ResponseWriter, r *http.Request) {
	writeJSON(rw, PingResponse{OK: true, LeasesServed: w.leases.Load()})
}

func (w *Worker) handleLease(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(rw, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req LeaseRequest
	if err := decodeBody(rw, r, &req); err != nil {
		return
	}
	// Bound the grid before RunPoints expands it, as POST /v1/sweeps does.
	if err := req.Spec.CheckServed(); err != nil {
		http.Error(rw, "cluster: "+err.Error(), http.StatusBadRequest)
		return
	}
	// Version-skew defense: recompute the digest from the spec we actually
	// decoded. A coordinator running different expansion code would
	// otherwise get rows for the wrong grid cells, silently.
	digest, err := req.Spec.SpecSHA256()
	if err != nil {
		http.Error(rw, "cluster: bad spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	if digest != req.SpecSHA256 {
		http.Error(rw, "cluster: spec digest mismatch (coordinator/worker version skew?)",
			http.StatusBadRequest)
		return
	}

	reg := w.Obs.Registry()
	start := time.Now()
	rows, err := dse.RunPoints(r.Context(), req.Spec, req.Indices, req.Fidelity,
		dse.Options{Cache: w.cache, Obs: w.Obs})
	if err != nil {
		reg.Counter("cluster_worker_leases_total", "Leases served by outcome.",
			"outcome", "error").Inc()
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	w.leases.Add(1)
	reg.Counter("cluster_worker_leases_total", "Leases served by outcome.",
		"outcome", "ok").Inc()
	reg.Counter("cluster_worker_points_total", "Grid points computed for leases.").
		Add(int64(len(rows)))
	if n := len(rows); n > 0 {
		reg.Histogram("cluster_worker_point_seconds",
			"Per-point wall time of lease execution on this worker.").
			Observe(time.Since(start).Seconds() / float64(n))
	}
	writeJSON(rw, LeaseResponse{LeaseID: req.LeaseID, Rows: rows})
}

// MaxBodyBytes bounds every cluster lease body and somad's job and sweep
// submissions. The largest lease - a dse.MaxServedPoints-point spec (4096
// listed seeds) plus all 4096 indices - is at most 101,821 bytes; 4 MiB
// leaves about 40x headroom over it.
const MaxBodyBytes = 4 << 20

// decodeBody parses one JSON request body of at most MaxBodyBytes,
// answering 413 when it is larger and 400 when it is malformed.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		http.Error(w, "cluster: request body exceeds "+strconv.Itoa(MaxBodyBytes)+" bytes",
			http.StatusRequestEntityTooLarge)
	case err != nil:
		http.Error(w, "cluster: bad request body: "+err.Error(), http.StatusBadRequest)
	}
	return err
}
