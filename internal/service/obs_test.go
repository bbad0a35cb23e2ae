package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"soma/internal/cluster"
	"soma/internal/dse"
)

// get fetches one URL and returns (status, body).
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestObservabilityEndpoints runs one job to completion and checks that the
// whole ops surface lights up: Prometheus families on /metrics, the per-job
// Perfetto trace, the extended /v1/stats payload, and the stdlib debug
// handlers.
func TestObservabilityEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	var v View
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs?wait=1", smallJob(9), &v); code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	if v.State != StateDone || v.Result == nil {
		t.Fatalf("job finished %q, want done", v.State)
	}
	// Stored results are scrubbed of the wall-clock Telemetry section so
	// the daemon serves the same bytes `soma -json` prints.
	if v.Result.Telemetry != nil {
		t.Error("stored result carries a Telemetry section; want it scrubbed")
	}

	t.Run("metrics", func(t *testing.T) {
		code, body := get(t, ts.URL+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		for _, family := range []string{
			"soma_sa_moves_proposed_total", "sim_inc_proposals_total",
			"sim_eval_cache_misses_total", "engine_solve_seconds_bucket",
			`engine_solves_total{backend="soma",outcome="ok"} 1`,
			`somad_jobs_total{kind="soma",outcome="ok"} 1`,
		} {
			if !strings.Contains(body, family) {
				t.Errorf("exposition missing %s", family)
			}
		}
	})

	t.Run("trace", func(t *testing.T) {
		code, body := get(t, ts.URL+"/v1/jobs/"+v.ID+"/trace")
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		var tf struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal([]byte(body), &tf); err != nil {
			t.Fatalf("trace is not valid JSON: %v", err)
		}
		if len(tf.TraceEvents) == 0 {
			t.Fatal("trace has no events")
		}
		for _, want := range []string{`"solve"`, `"stage1"`, `"stage2"`} {
			if !strings.Contains(body, want) {
				t.Errorf("trace missing %s span", want)
			}
		}
		if code, _ := get(t, ts.URL+"/v1/jobs/job-999999/trace"); code != http.StatusNotFound {
			t.Errorf("unknown job trace: status %d, want 404", code)
		}
	})

	t.Run("stats", func(t *testing.T) {
		var st Stats
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &st); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if st.UptimeSeconds <= 0 {
			t.Errorf("uptime %v, want > 0", st.UptimeSeconds)
		}
		if st.Solves["soma"] != 1 {
			t.Errorf("solves %v, want soma:1", st.Solves)
		}
		if len(st.Metrics) == 0 {
			t.Error("stats carries no registry snapshot")
		}
		if st.QueueDepth != 0 || st.Jobs[StateQueued] != 0 {
			t.Errorf("queue depth %d / queued %d after drain, want 0/0",
				st.QueueDepth, st.Jobs[StateQueued])
		}
	})

	t.Run("debug", func(t *testing.T) {
		if code, _ := get(t, ts.URL+"/debug/vars"); code != http.StatusOK {
			t.Errorf("expvar: status %d", code)
		}
		if code, body := get(t, ts.URL+"/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
			t.Errorf("pprof cmdline: status %d", code)
		}
	})
}

// TestSweepTrace: sweep jobs serve their trace on the sweeps namespace, with
// every point on its own track.
func TestSweepTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var v View
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps?wait=1", smallSweep(), &v); code != http.StatusOK {
		t.Fatalf("sweep submit: status %d", code)
	}
	if v.State != StateDone {
		t.Fatalf("sweep finished %q (err %q), want done", v.State, v.Error)
	}
	code, body := get(t, ts.URL+"/v1/sweeps/"+v.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace: status %d", code)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	for _, want := range []string{"point-000", "point-001"} {
		if !strings.Contains(body, want) {
			t.Errorf("trace missing %s track", want)
		}
	}
	var st Stats
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.Solves["sweep"] != 1 {
		t.Errorf("solves %v, want sweep:1", st.Solves)
	}
}

// TestWorkerSharesServerCache: a cluster worker evaluates its leases on the
// process's one evaluation cache, so after a job and a lease the /metrics
// sim_eval_cache_* family and /v1/stats report the same counters.
func TestWorkerSharesServerCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, ClusterWorker: true})
	v := submit(t, ts, smallJob(1))
	if got := pollUntil(t, ts, v.ID, time.Minute, terminal); got.State != StateDone {
		t.Fatalf("job ended %s: %s", got.State, got.Error)
	}

	sw := dse.Sweep{Models: []string{"mobilenetv2"}, GBufMB: []int64{4},
		Search: &dse.Search{Profile: "fast", Seed: 2, Beta1: 2, Beta2: 1}}
	digest, err := sw.SpecSHA256()
	if err != nil {
		t.Fatal(err)
	}
	lease := cluster.LeaseRequest{LeaseID: "lease-0", Spec: sw, SpecSHA256: digest, Indices: []int{0}}
	var lr cluster.LeaseResponse
	if code := doJSON(t, http.MethodPost, ts.URL+cluster.PathLease, lease, &lr); code != http.StatusOK || len(lr.Rows) != 1 {
		t.Fatalf("lease: status %d, %d rows", code, len(lr.Rows))
	}

	var st Stats
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	_, body := get(t, ts.URL+"/metrics")
	for name, want := range map[string]int64{
		"sim_eval_cache_hits_total":   st.Cache.Hits,
		"sim_eval_cache_misses_total": st.Cache.Misses,
	} {
		got := int64(-1)
		for _, line := range strings.Split(body, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				got = int64(f)
			}
		}
		if got != want {
			t.Errorf("/metrics %s = %d, /v1/stats says %d", name, got, want)
		}
	}
}
