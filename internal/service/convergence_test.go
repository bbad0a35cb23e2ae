package service

import (
	"net/http"
	"strings"
	"testing"

	"soma/internal/obs"
)

// findFamily picks one metric family out of a registry snapshot.
func findFamily(t *testing.T, snaps []obs.MetricSnapshot, name string) obs.MetricSnapshot {
	t.Helper()
	for _, m := range snaps {
		if m.Name == name {
			return m
		}
	}
	return obs.MetricSnapshot{Name: name}
}

// TestConvergenceEndpoint: a finished plain job serves its full trajectory
// and diagnostics on /convergence, while the stored result stays scrubbed of
// the section; sweep jobs and unknown IDs 404.
func TestConvergenceEndpoint(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})

	before := findFamily(t, svc.reg.Snapshot(), "engine_solves_total")

	var v View
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs?wait=1", smallJob(13), &v); code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	if v.State != StateDone || v.Result == nil {
		t.Fatalf("job finished %q, want done", v.State)
	}
	if v.Result.Convergence != nil {
		t.Error("stored result carries a Convergence section; want it scrubbed")
	}

	var rep obs.ConvergenceReport
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+v.ID+"/convergence", nil, &rep); code != http.StatusOK {
		t.Fatalf("convergence: status %d", code)
	}
	if len(rep.Series) == 0 || rep.Diagnostics == nil {
		t.Fatalf("empty convergence report: %+v", rep)
	}
	stages := map[string]bool{}
	for _, cs := range rep.Series {
		stages[cs.Stage] = true
		if !cs.Finished || len(cs.Samples) == 0 {
			t.Errorf("series %s/%d/%d unfinished or empty", cs.Stage, cs.AllocIter, cs.Chain)
		}
	}
	if !stages["stage1"] || !stages["stage2"] {
		t.Errorf("series stages = %v, want stage1 and stage2", stages)
	}
	if rep.Diagnostics.Stage != "stage2" {
		t.Errorf("diagnostics winner stage = %q, want stage2", rep.Diagnostics.Stage)
	}
	if rep.Diagnostics.FinalBest != v.Result.Cost {
		t.Errorf("diagnostics FinalBest %g != stored cost %g",
			rep.Diagnostics.FinalBest, v.Result.Cost)
	}

	// The solve landed exactly once on the shared registry - asserted as a
	// delta so metrics from other tests' servers can never interfere.
	okSoma := func(m obs.MetricSnapshot) float64 {
		for _, se := range m.Series {
			if strings.Contains(se.Labels, `backend="soma"`) && strings.Contains(se.Labels, `outcome="ok"`) {
				return se.Value
			}
		}
		return 0
	}
	after := findFamily(t, svc.reg.Snapshot(), "engine_solves_total")
	if d := okSoma(after) - okSoma(before); d != 1 {
		t.Errorf("engine_solves_total ok soma delta = %g, want 1 (series %+v)", d, after.Series)
	}

	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/job-999999/convergence", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}

	var sv View
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps?wait=1", smallSweep(), &sv); code != http.StatusOK {
		t.Fatalf("sweep submit: status %d", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+sv.ID+"/convergence", nil, nil); code != http.StatusNotFound {
		t.Errorf("sweep convergence: status %d, want 404 (rows carry diagnostics instead)", code)
	}
}

// TestDashboard: /debug/dash serves the embedded single-page dashboard.
func TestDashboard(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/debug/dash")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/html; charset=utf-8" {
		t.Errorf("content type = %q", ct)
	}
	_, body := get(t, ts.URL+"/debug/dash")
	for _, want := range []string{"<!DOCTYPE html>", "somad", "/v1/stats", "/v1/jobs", "/convergence", "EventSource"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
}

// TestMetricsContentTypeAndHead: the exposition carries the Prometheus text
// content type on GET and HEAD alike, and HEAD serves no body.
func TestMetricsContentTypeAndHead(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	var v View
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs?wait=1", smallJob(17), &v); code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	const wantCT = "text/plain; version=0.0.4; charset=utf-8"
	if ct := resp.Header.Get("Content-Type"); ct != wantCT {
		t.Errorf("GET content type = %q, want %q", ct, wantCT)
	}
	_, body := get(t, ts.URL+"/metrics")
	// Histogram expositions must close with the +Inf bucket.
	if !strings.Contains(body, `engine_solve_seconds_bucket{backend="soma",le="+Inf"} 1`) {
		t.Error("exposition missing the +Inf bucket of engine_solve_seconds")
	}

	head, err := http.Head(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer head.Body.Close()
	if head.StatusCode != http.StatusOK {
		t.Errorf("HEAD status %d", head.StatusCode)
	}
	if ct := head.Header.Get("Content-Type"); ct != wantCT {
		t.Errorf("HEAD content type = %q, want %q", ct, wantCT)
	}
	buf := make([]byte, 1)
	if n, _ := head.Body.Read(buf); n != 0 {
		t.Error("HEAD served a body")
	}
}
