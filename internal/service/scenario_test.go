package service

import (
	"bytes"
	"context"
	"net/http"
	"sort"
	"testing"
	"time"

	"soma/internal/engine"
	"soma/internal/report"
	"soma/internal/soma"
	"soma/internal/workload"
)

// scenarioJob is a built-in-scenario request small enough for CI.
func scenarioJob(seed int64) map[string]any {
	return map[string]any{
		"scenario": "multi-tenant-cnn", "hw": "edge",
		"params": map[string]any{"profile": "fast", "seed": seed, "beta1": 2, "beta2": 1},
	}
}

func renderResult(t *testing.T, r *report.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestScenarioJobEndToEnd is the multi-model acceptance check: a fixed-seed
// scenario job over HTTP must be byte-identical to the library path that
// `soma -scenario -json` prints.
func TestScenarioJobEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	v := submit(t, ts, scenarioJob(5))
	got := pollUntil(t, ts, v.ID, 2*time.Minute, terminal)
	if got.State != StateDone || got.Result == nil {
		t.Fatalf("scenario job finished %q (err %q), want done", got.State, got.Error)
	}
	if got.Result.Scenario == nil || len(got.Result.Scenario.Components) != 2 {
		t.Fatalf("scenario section missing or malformed: %+v", got.Result.Scenario)
	}
	if got.Result.Workload.Model != engine.ScenarioModelName("multi-tenant-cnn") {
		t.Fatalf("workload model %q", got.Result.Workload.Model)
	}

	sc, err := workload.Builtin("multi-tenant-cnn")
	if err != nil {
		t.Fatal(err)
	}
	par, err := soma.ProfileParams("fast")
	if err != nil {
		t.Fatal(err)
	}
	par.Seed = 5
	par.Beta1, par.Beta2 = 2, 1
	par.Stage2MaxIters = 1 << 20
	want, err := engine.Run(context.Background(), engine.Request{Scenario: &sc,
		Platform: "edge", Objective: soma.EDP(), Params: par}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderResult(t, got.Result), renderResult(t, want)) {
		t.Error("scenario payload diverged between the jobs API and the library path")
	}
}

// TestScenarioSpecJob submits an inline declarative spec instead of a
// built-in name.
func TestScenarioSpecJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := map[string]any{
		"scenario_spec": map[string]any{
			"name":    "twin-mobilenets",
			"arrival": "sequential",
			"components": []map[string]any{
				{"name": "a", "model": "mobilenetv2", "weight": 2},
				{"name": "b", "model": "mobilenetv2"},
			},
		},
		"params": map[string]any{"profile": "fast", "beta1": 2, "beta2": 1},
	}
	v := submit(t, ts, body)
	got := pollUntil(t, ts, v.ID, 2*time.Minute, terminal)
	if got.State != StateDone || got.Result == nil {
		t.Fatalf("spec job finished %q (err %q), want done", got.State, got.Error)
	}
	info := got.Result.Scenario
	if info == nil || info.Name != "twin-mobilenets" || info.Arrival != "sequential" {
		t.Fatalf("scenario section: %+v", info)
	}
	// Sequential arrival runs the heavier-weight component first.
	if info.Components[0].Name != "a" || info.Components[1].Name != "b" {
		t.Fatalf("component order: %+v", info.Components)
	}
}

func TestScenarioBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []map[string]any{
		{"scenario": "multi-tenant-cnn", "model": "resnet50"},
		{"scenario": "no-such-scenario"},
		{"scenario": "multi-tenant-cnn", "scenario_spec": map[string]any{"name": "x"}},
		{"scenario": "multi-tenant-cnn", "framework": "cocco"},
		{"scenario_spec": map[string]any{"name": "x", "components": []map[string]any{{"model": "alexnet"}}}},
		{"scenario_spec": map[string]any{"name": "x"}},
	}
	for i, body := range cases {
		var e apiError
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &e); code != http.StatusBadRequest {
			t.Errorf("case %d: status %d (error %q), want 400", i, code, e.Error)
		}
	}
}

func TestScenariosEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var out struct {
		Scenarios []workload.Scenario `json:"scenarios"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/scenarios", nil, &out); code != http.StatusOK {
		t.Fatalf("scenarios: status %d", code)
	}
	if len(out.Scenarios) < 3 {
		t.Fatalf("want at least 3 built-in scenarios, got %d", len(out.Scenarios))
	}
	names := make([]string, 0, len(out.Scenarios))
	for _, sc := range out.Scenarios {
		names = append(names, sc.Name)
		if len(sc.Components) == 0 || !sc.Arrival.Valid() {
			t.Errorf("scenario %s served incomplete: %+v", sc.Name, sc)
		}
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("scenario listing not sorted: %v", names)
	}
	// Every served spec is resubmittable verbatim: it must re-validate.
	for _, sc := range out.Scenarios {
		if err := sc.Validate(); err != nil {
			t.Errorf("served scenario %s does not validate: %v", sc.Name, err)
		}
	}
}
