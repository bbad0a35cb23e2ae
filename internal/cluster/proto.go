package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"soma/internal/dse"
)

// Endpoint paths. Workers mount PathPing and PathLease (see Worker.Mount).
const (
	PathPing  = "/v1/cluster/ping"
	PathLease = "/v1/cluster/lease"
)

// LeaseRequest asks a worker to compute a subset of a sweep's expanded grid.
// The request is self-contained - it carries the full spec, not a reference -
// so workers are stateless between leases and any worker can take any lease.
type LeaseRequest struct {
	// LeaseID names the lease for logs and responses; it is deterministic
	// per (spec, indices) so retried dispatches are recognizable.
	LeaseID string    `json:"lease_id"`
	Spec    dse.Sweep `json:"spec"`
	// SpecSHA256 is the coordinator's spec digest. Workers re-derive the
	// digest from Spec and reject a mismatch: after a version skew the two
	// sides could otherwise silently expand different grids.
	SpecSHA256 string `json:"spec_sha256"`
	// Indices are the canonical-expansion point indices to compute.
	Indices []int `json:"indices"`
	// Fidelity is the adaptive rung the lease belongs to
	// (dse.FidelityProbe / dse.FidelityFull; "" for exhaustive sweeps).
	// Workers solve probe leases at dse.ProbeParams fidelity and stamp the
	// rows, so a rung's lease grid shards exactly like an exhaustive one.
	Fidelity string `json:"fidelity,omitempty"`
}

// LeaseResponse returns the computed rows, Scrubbed, in Indices order.
type LeaseResponse struct {
	LeaseID string    `json:"lease_id"`
	Rows    []dse.Row `json:"rows"`
}

// PingResponse answers a heartbeat.
type PingResponse struct {
	OK           bool  `json:"ok"`
	LeasesServed int64 `json:"leases_served"`
}

// postJSON round-trips one JSON request/response pair, treating any non-200
// status as an error carrying the response body.
func postJSON(ctx context.Context, hc *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("cluster: %s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// writeJSON emits one JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
