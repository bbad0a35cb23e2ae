package report

import (
	"reflect"
	"testing"

	"soma/internal/obs"
)

// fullResult builds a payload with every optional section populated,
// optionally with one scenario component that carries the same sections.
func fullResult(scenario bool) *Result {
	r := &Result{
		Framework:   "soma",
		Seed:        3,
		Cost:        42,
		Search:      &Search{CacheHits: 7, CacheMisses: 3, CacheEntries: 5, CacheHitRate: 0.7},
		Telemetry:   &Telemetry{SolveWallMS: 12},
		Convergence: &obs.ConvergenceReport{},
		Raw:         &Raw{Stage1WallNS: 1},
	}
	if scenario {
		iso := *r
		iso.Scenario = nil
		iso.Search = &Search{CacheHits: 1, CacheMisses: 1, CacheHitRate: 0.5}
		iso.Telemetry = &Telemetry{SolveWallMS: 4}
		iso.Convergence = &obs.ConvergenceReport{}
		iso.Raw = &Raw{Stage2WallNS: 2}
		r.Scenario = &ScenarioInfo{Name: "mix", Components: []ScenarioComponent{
			{Name: "a", Model: "resnet50", Isolated: &iso},
			{Name: "b", Model: "ires"},
		}}
	}
	return r
}

func TestDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name     string
		scenario bool
	}{
		{"single-model", false},
		{"scenario", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := fullResult(tc.scenario)
			before := fullResult(tc.scenario)
			got := src.Deterministic()

			if got == src {
				t.Fatal("Deterministic returned its receiver, want a copy")
			}
			if got.Raw != nil || got.Telemetry != nil || got.Convergence != nil {
				t.Fatalf("sections kept: raw %v telemetry %v convergence %v",
					got.Raw, got.Telemetry, got.Convergence)
			}
			if !reflect.DeepEqual(got.Search, src.Search) || got.Search.CacheHits != 7 {
				t.Fatalf("search = %+v, want the cache counters kept", got.Search)
			}
			if got.Cost != src.Cost || got.Seed != src.Seed || got.Framework != src.Framework {
				t.Fatalf("payload scalars changed: %+v", got)
			}
			if tc.scenario {
				iso := got.Scenario.Components[0].Isolated
				if iso.Raw != nil || iso.Telemetry != nil || iso.Convergence != nil {
					t.Fatalf("component sections kept: %+v", iso)
				}
				if iso.Search.CacheHits != 1 {
					t.Fatalf("component search = %+v, want the cache counters kept", iso.Search)
				}
				if got.Scenario.Components[1].Isolated != nil {
					t.Fatal("nil component result became non-nil")
				}
				if got.Scenario.Name != "mix" || len(got.Scenario.Components) != 2 {
					t.Fatalf("scenario section = %+v", got.Scenario)
				}
			} else if got.Scenario != nil {
				t.Fatal("single-model result grew a scenario section")
			}
			if !reflect.DeepEqual(src, before) {
				t.Fatal("Deterministic modified its receiver")
			}
		})
	}

	var nilRes *Result
	if nilRes.Deterministic() != nil {
		t.Fatal("nil receiver must yield nil")
	}
}
