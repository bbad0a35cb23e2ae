package service

import (
	"bufio"
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"soma/internal/dse"
)

// smallSweep is a 2-point grid quick enough for round-trip tests.
func smallSweep() map[string]any {
	return map[string]any{
		"name":    "test-sweep",
		"models":  []string{"mobilenetv2"},
		"gbuf_mb": []int64{2, 4},
		"search":  map[string]any{"profile": "fast", "beta1": 2, "beta2": 1},
	}
}

func TestSweepRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var v View
	if code := doJSON(t, "POST", ts.URL+"/v1/sweeps?wait=1", smallSweep(), &v); code != http.StatusOK {
		t.Fatalf("submit = %d", code)
	}
	if !strings.HasPrefix(v.ID, "sweep-") {
		t.Fatalf("sweep job id = %q", v.ID)
	}
	if v.State != StateDone {
		t.Fatalf("state = %s (%s)", v.State, v.Error)
	}
	if v.Sweep == nil || v.Sweep.Name != "test-sweep" || v.Request != nil {
		t.Fatalf("sweep view misshaped: %+v", v)
	}
	out := v.SweepResult
	if out == nil || out.Points != 2 || len(out.Rows) != 2 || out.Failed != 0 {
		t.Fatalf("sweep result = %+v", out)
	}
	for i, row := range out.Rows {
		if row.Result == nil || row.Result.Cost <= 0 {
			t.Fatalf("row %d: %+v", i, row)
		}
		// Served rows are scrubbed: no cache counters survive.
		if s := row.Result.Search; s != nil && (s.CacheHits != 0 || s.CacheMisses != 0) {
			t.Fatalf("row %d not scrubbed: %+v", i, s)
		}
	}

	// The namespaces stay separate: sweeps list under /v1/sweeps, not jobs.
	var sweeps struct{ Sweeps []View }
	if code := doJSON(t, "GET", ts.URL+"/v1/sweeps", nil, &sweeps); code != 200 || len(sweeps.Sweeps) != 1 {
		t.Fatalf("sweep list = %d %+v", code, sweeps)
	}
	var jobs struct{ Jobs []View }
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs", nil, &jobs); code != 200 || len(jobs.Jobs) != 0 {
		t.Fatalf("jobs list must not include sweeps: %+v", jobs)
	}
	var got View
	if code := doJSON(t, "GET", ts.URL+"/v1/sweeps/"+v.ID, nil, &got); code != 200 || got.SweepResult == nil {
		t.Fatalf("get sweep = %d %+v", code, got)
	}
}

func TestSweepMatchesCLIJournalRows(t *testing.T) {
	// A sweep served over HTTP must carry the same scrubbed rows the dse
	// runner (and therefore `soma -sweep`'s journal) produces in-process.
	_, ts := newTestServer(t, Config{Workers: 1})
	var v View
	if code := doJSON(t, "POST", ts.URL+"/v1/sweeps?wait=1", smallSweep(), &v); code != http.StatusOK {
		t.Fatalf("submit = %d", code)
	}
	sw, err := dse.ParseSweep([]byte(`{"name":"test-sweep","models":["mobilenetv2"],
		"gbuf_mb":[2,4],"search":{"profile":"fast","beta1":2,"beta2":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	local, err := dse.Run(context.Background(), sw, dse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	local.Scrub()
	for i := range local.Rows {
		want, got := local.Rows[i].Result, v.SweepResult.Rows[i].Result
		if want.Cost != got.Cost || want.EncodingSHA256 != got.EncodingSHA256 ||
			want.ScheduleSHA256 != got.ScheduleSHA256 {
			t.Fatalf("row %d differs over HTTP: %+v vs %+v", i, want, got)
		}
	}
	if v.SweepResult.SpecSHA256 != local.SpecSHA256 {
		t.Fatalf("spec digests differ: %s vs %s", v.SweepResult.SpecSHA256, local.SpecSHA256)
	}
}

func TestSweepValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []map[string]any{
		{},                               // no workload
		{"models": []string{"nope"}},     // unknown model
		{"modles": []string{"resnet50"}}, // typoed axis
		{"models": []string{"resnet50"}, "batches": []int{0}},                           // bad batch
		{"models": []string{"resnet50"}, "gbuf_mb": []int64{1 << 43}},                   // bytes overflow
		{"models": []string{"resnet50"}, "seeds": make([]int64, dse.MaxServedPoints+1)}, // too big
	}
	for i, c := range cases {
		var e struct{ Error string }
		if code := doJSON(t, "POST", ts.URL+"/v1/sweeps", c, &e); code != http.StatusBadRequest {
			t.Fatalf("case %d: status %d (%+v)", i, code, e)
		}
		if e.Error == "" {
			t.Fatalf("case %d: no error message", i)
		}
	}
}

func TestSweepEventsSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var v View
	if code := doJSON(t, "POST", ts.URL+"/v1/sweeps?wait=1", smallSweep(), &v); code != http.StatusOK {
		t.Fatalf("submit = %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	kinds := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			kinds[strings.TrimPrefix(line, "event: ")]++
		}
		if line == "event: end" {
			break
		}
	}
	if kinds["sweep-start"] != 1 || kinds["point-done"] != 2 || kinds["sweep-done"] != 1 {
		t.Fatalf("sse kinds = %v", kinds)
	}
}

// TestSweepAdaptiveRoundTrip: a spec with an adaptive block runs through the
// successive-halving driver server-side — the served outcome carries the rung
// stats and fidelity-stamped rows, and the SSE stream replays the rung events.
func TestSweepAdaptiveRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := smallSweep()
	spec["gbuf_mb"] = []int64{2, 3, 4, 6}
	spec["seeds"] = []int64{1, 2}
	spec["adaptive"] = map[string]any{}
	var v View
	if code := doJSON(t, "POST", ts.URL+"/v1/sweeps?wait=1", spec, &v); code != http.StatusOK {
		t.Fatalf("submit = %d", code)
	}
	if v.State != StateDone {
		t.Fatalf("state = %s (%s)", v.State, v.Error)
	}
	out := v.SweepResult
	if out == nil || out.Adaptive == nil {
		t.Fatalf("adaptive sweep result missing stats: %+v", out)
	}
	a := out.Adaptive
	if a.Probes != 8 || a.Promotions == 0 || a.Promotions > a.Budget ||
		a.SolvesSaved != a.Probes-a.Promotions {
		t.Fatalf("adaptive stats = %+v", a)
	}
	fulls := 0
	for i, row := range out.Rows {
		switch row.Fidelity {
		case dse.FidelityFull:
			fulls++
		case dse.FidelityProbe:
		default:
			t.Fatalf("row %d fidelity = %q", i, row.Fidelity)
		}
	}
	if fulls != a.Promotions {
		t.Fatalf("%d full rows, want %d promotions", fulls, a.Promotions)
	}

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	kinds := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			kinds[strings.TrimPrefix(line, "event: ")]++
		}
		if line == "event: end" {
			break
		}
	}
	if kinds["rung-start"] != 2 || kinds["rung-done"] != 2 {
		t.Fatalf("sse kinds = %v, want two rungs", kinds)
	}
}

func TestSweepCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// A deliberately slow grid: paper-profile points on a deep model.
	slow := map[string]any{
		"models": []string{"resnet101"},
		"seeds":  []int64{1, 2, 3, 4},
		"search": map[string]any{"profile": "paper"},
	}
	var v View
	if code := doJSON(t, "POST", ts.URL+"/v1/sweeps", slow, &v); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var cur View
		doJSON(t, "GET", ts.URL+"/v1/sweeps/"+v.ID, nil, &cur)
		if cur.State == StateRunning {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/sweeps/"+v.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("cancel = %d", code)
	}
	for time.Now().Before(deadline) {
		var cur View
		doJSON(t, "GET", ts.URL+"/v1/sweeps/"+v.ID, nil, &cur)
		if cur.State.Terminal() {
			if cur.State != StateCanceled {
				t.Fatalf("state = %s", cur.State)
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("sweep did not reach a terminal state after cancel")
}
