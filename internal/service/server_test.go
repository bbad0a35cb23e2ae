package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"soma/internal/hw"
	"soma/internal/models"
	"soma/internal/report"
	"soma/internal/soma"
)

// newTestServer starts a service and its HTTP front end, both torn down with
// the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return svc, ts
}

func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// smallJob is a request small enough to finish in well under a second.
func smallJob(seed int64) map[string]any {
	return map[string]any{
		"model": "mobilenetv2", "batch": 1, "hw": "edge",
		"params": map[string]any{"profile": "fast", "seed": seed, "beta1": 2, "beta2": 1},
	}
}

// bigJob is a request that runs long enough to be observed running and then
// canceled (paper-scale iteration budgets on a deep model).
func bigJob() map[string]any {
	return map[string]any{
		"model": "resnet101", "batch": 16, "hw": "cloud",
		"params": map[string]any{"profile": "paper"},
	}
}

func submit(t *testing.T, ts *httptest.Server, body any) View {
	t.Helper()
	var v View
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &v); code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%+v)", code, v)
	}
	if v.ID == "" || v.State != StateQueued {
		t.Fatalf("submit returned %+v", v)
	}
	return v
}

// pollUntil polls the job until cond holds, failing the test on timeout.
func pollUntil(t *testing.T, ts *httptest.Server, id string, timeout time.Duration,
	cond func(View) bool) View {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var v View
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil, &v); code != http.StatusOK {
			t.Fatalf("get %s: status %d", id, code)
		}
		if cond(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q (err %q)", id, v.State, v.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func terminal(v View) bool { return v.State.Terminal() }

// TestEndToEndDeterminism is the acceptance check: a fixed-seed job over
// HTTP must reproduce the exact cost and encoding of the same run through
// the library path cmd/soma uses, and resubmitting it must hit the shared
// evaluation cache.
func TestEndToEndDeterminism(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	v := submit(t, ts, smallJob(7))
	got := pollUntil(t, ts, v.ID, 2*time.Minute, terminal)
	if got.State != StateDone || got.Result == nil {
		t.Fatalf("job finished %q (err %q), want done", got.State, got.Error)
	}

	// The same run through the library path (what cmd/soma -json prints).
	cfg, err := hw.Platform("edge")
	if err != nil {
		t.Fatal(err)
	}
	g, err := models.Build("mobilenetv2", 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := soma.ProfileParams("fast")
	if err != nil {
		t.Fatal(err)
	}
	par.Seed = 7
	par.Beta1, par.Beta2 = 2, 1
	par.Stage2MaxIters = 1 << 20
	res, err := soma.New(g, cfg, soma.EDP(), par).Run()
	if err != nil {
		t.Fatal(err)
	}
	spec := report.Spec{Model: "mobilenetv2", Batch: 1, HW: "edge",
		Framework: "soma", Seed: 7, Obj: report.Objective{N: 1, M: 1}}
	want := report.FromSoma(spec, cfg, res)

	if got.Result.Cost != want.Cost {
		t.Errorf("cost diverged: http %v, library %v", got.Result.Cost, want.Cost)
	}
	if got.Result.EncodingKey != want.EncodingKey {
		t.Errorf("encoding diverged:\nhttp    %s\nlibrary %s", got.Result.EncodingKey, want.EncodingKey)
	}
	if got.Result.ScheduleSHA256 != want.ScheduleSHA256 {
		t.Errorf("schedule diverged: http %s, library %s", got.Result.ScheduleSHA256, want.ScheduleSHA256)
	}

	// Resubmitting the identical job must be served from the warm cache
	// with an identical result.
	v2 := submit(t, ts, smallJob(7))
	got2 := pollUntil(t, ts, v2.ID, 2*time.Minute, terminal)
	if got2.State != StateDone || got2.Result == nil {
		t.Fatalf("second job finished %q, want done", got2.State)
	}
	if got2.Result.Cost != want.Cost || got2.Result.EncodingKey != want.EncodingKey {
		t.Error("second submission diverged from the first")
	}
	var st Stats
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.Cache.Hits <= 0 {
		t.Errorf("expected shared-cache hits after identical resubmission, got %+v", st.Cache)
	}
	if st.Jobs[StateDone] != 2 {
		t.Errorf("job counts: %+v, want 2 done", st.Jobs)
	}
}

// TestCancelRunningJob checks that DELETE stops the annealer mid-chain and
// frees the (single) worker slot for the next job.
func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	v := submit(t, ts, bigJob())
	pollUntil(t, ts, v.ID, time.Minute, func(v View) bool { return v.State == StateRunning })

	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("cancel: status %d", code)
	}
	got := pollUntil(t, ts, v.ID, time.Minute, terminal)
	if got.State != StateCanceled {
		t.Fatalf("canceled job finished %q (err %q), want canceled", got.State, got.Error)
	}
	if got.Result != nil {
		t.Fatal("canceled job must not carry a result")
	}

	// The freed worker must pick up and finish the next job.
	next := submit(t, ts, smallJob(3))
	done := pollUntil(t, ts, next.ID, 2*time.Minute, terminal)
	if done.State != StateDone {
		t.Fatalf("follow-up job finished %q (err %q), want done", done.State, done.Error)
	}

	// Canceling a terminal job is a conflict, not a transition.
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+done.ID, nil, nil); code != http.StatusConflict {
		t.Fatalf("cancel of done job: status %d, want 409", code)
	}
}

// TestCancelQueuedJob: a job deleted before any worker picks it up must go
// straight to canceled and never run.
func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	blocker := submit(t, ts, bigJob())
	pollUntil(t, ts, blocker.ID, time.Minute, func(v View) bool { return v.State == StateRunning })

	queued := submit(t, ts, smallJob(1))
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("cancel queued: status %d", code)
	}
	got := pollUntil(t, ts, queued.ID, time.Minute, terminal)
	if got.State != StateCanceled {
		t.Fatalf("queued job finished %q, want canceled", got.State)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+blocker.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("cancel blocker: status %d", code)
	}
}

// TestRegistryEndpoints table-tests the enumeration and liveness endpoints
// against the in-process registries.
func TestRegistryEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	t.Run("healthz", func(t *testing.T) {
		var body map[string]string
		if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &body); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if body["status"] != "ok" {
			t.Fatalf("body %v", body)
		}
	})

	t.Run("models", func(t *testing.T) {
		var body struct {
			Models []string `json:"models"`
		}
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/models", nil, &body); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		want := models.Names()
		if fmt.Sprint(body.Models) != fmt.Sprint(want) {
			t.Fatalf("models = %v, want %v", body.Models, want)
		}
	})

	t.Run("hw", func(t *testing.T) {
		var body struct {
			HW []HWInfo `json:"hw"`
		}
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/hw", nil, &body); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if len(body.HW) != len(hw.Platforms()) {
			t.Fatalf("hw = %+v, want %d entries", body.HW, len(hw.Platforms()))
		}
		for i, name := range hw.Platforms() {
			info := body.HW[i]
			if info.Name != name {
				t.Errorf("hw[%d] = %q, want %q", i, info.Name, name)
			}
			if info.PeakTOPS <= 0 || info.GBufBytes <= 0 || info.DRAMBandwidth <= 0 ||
				info.Cores <= 0 || info.Description == "" {
				t.Errorf("hw[%d] has empty fields: %+v", i, info)
			}
		}
	})

	badSubmits := []struct {
		name string
		body map[string]any
	}{
		{"unknown model", map[string]any{"model": "alexnet", "hw": "edge"}},
		{"unknown hw", map[string]any{"model": "resnet50", "hw": "tpu"}},
		{"unknown framework", map[string]any{"model": "resnet50", "hw": "edge", "framework": "ilp"}},
		{"unknown profile", map[string]any{"model": "resnet50", "hw": "edge",
			"params": map[string]any{"profile": "huge"}}},
		{"negative batch", map[string]any{"model": "resnet50", "batch": -1, "hw": "edge"}},
	}
	for _, tc := range badSubmits {
		t.Run("400 "+tc.name, func(t *testing.T) {
			var e struct {
				Error string `json:"error"`
			}
			if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", tc.body, &e); code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", code)
			}
			if e.Error == "" {
				t.Fatal("400 without an error message")
			}
		})
	}

	t.Run("404 unknown job", func(t *testing.T) {
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/job-999999", nil, nil); code != http.StatusNotFound {
			t.Fatalf("status %d, want 404", code)
		}
		if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/job-999999", nil, nil); code != http.StatusNotFound {
			t.Fatalf("status %d, want 404", code)
		}
	})
}

// TestSubmitWait exercises the synchronous ?wait=1 path.
func TestSubmitWait(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var v View
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs?wait=1", smallJob(5), &v)
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if v.State != StateDone || v.Result == nil {
		t.Fatalf("wait returned %q (err %q), want done with result", v.State, v.Error)
	}
}

// TestQueueFull: submits beyond the queue bound are rejected with 503.
func TestQueueFull(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	blocker := submit(t, ts, bigJob())
	pollUntil(t, ts, blocker.ID, time.Minute, func(v View) bool { return v.State == StateRunning })
	submit(t, ts, smallJob(1)) // fills the single queue slot

	var e struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallJob(2), &e); code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", code)
	}
	if !strings.Contains(e.Error, "queue full") {
		t.Fatalf("error %q", e.Error)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+blocker.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("cancel blocker: status %d", code)
	}
}

// TestListJobs: the listing preserves submission order.
func TestListJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	a := submit(t, ts, smallJob(1))
	b := submit(t, ts, smallJob(2))
	var body struct {
		Jobs []View `json:"jobs"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil, &body); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(body.Jobs) != 2 || body.Jobs[0].ID != a.ID || body.Jobs[1].ID != b.ID {
		t.Fatalf("listing %+v, want [%s %s]", body.Jobs, a.ID, b.ID)
	}
	pollUntil(t, ts, b.ID, 2*time.Minute, terminal)
}
