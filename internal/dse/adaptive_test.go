package dse

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"soma/internal/engine"
	"soma/internal/obs"
	"soma/internal/report"
	"soma/internal/soma"
)

func TestAdaptiveDefaults(t *testing.T) {
	cases := []struct {
		in              Adaptive
		n               int
		budget, explore int
		epsilon         float64
	}{
		{Adaptive{}, 10, 3, 1, 0.25},
		{Adaptive{}, 100, 30, 3, 0.25},
		{Adaptive{}, 1, 1, 0, 0.25},
		{Adaptive{Budget: 50}, 10, 10, 1, 0.25}, // clamped to grid
		{Adaptive{Budget: 4, Explore: 9}, 10, 4, 3, 0.25},
		{Adaptive{Budget: 2, Epsilon: 0.1, Explore: 1}, 10, 2, 1, 0.1},
	}
	for _, c := range cases {
		got := c.in.withDefaults(c.n)
		if got.Budget != c.budget || got.Explore != c.explore || got.Epsilon != c.epsilon {
			t.Errorf("withDefaults(%+v, n=%d) = %+v, want budget=%d explore=%d eps=%g",
				c.in, c.n, got, c.budget, c.explore, c.epsilon)
		}
	}
}

func TestProbeParamsScalesDown(t *testing.T) {
	par := soma.DefaultParams()
	par.Chains, par.Workers = 8, 4
	p := ProbeParams(par)
	if p.Chains != 0 || p.Workers != 0 {
		t.Fatalf("probe portfolio not collapsed: %+v", p)
	}
	if p.Beta1 >= par.Beta1 && par.Beta1 > 1 {
		t.Fatalf("beta1 not reduced: %d -> %d", par.Beta1, p.Beta1)
	}
	if p.Stage1MaxIters > 800 || p.Stage2MaxIters > 1500 {
		t.Fatalf("iteration caps not applied: %+v", p)
	}
	// An uncapped (<= 0) budget is capped like a large one.
	unc := soma.DefaultParams()
	unc.Stage1MaxIters, unc.Stage2MaxIters = 0, -1
	if u := ProbeParams(unc); u.Stage1MaxIters != 800 || u.Stage2MaxIters != 1500 {
		t.Fatalf("uncapped budget left uncapped: %+v", u)
	}
	// Already-tiny params stay valid (never scaled to zero).
	tiny := soma.FastParams()
	tiny.Beta1, tiny.Beta2 = 1, 1
	q := ProbeParams(tiny)
	if q.Beta1 < 1 || q.Beta2 < 1 {
		t.Fatalf("probe scaled betas below 1: %+v", q)
	}
}

// probeRow builds a synthetic successful probe row for promotion tests.
func probeRow(idx int, gbuf int64, cost float64) Row {
	return Row{
		Point:    Point{Index: idx},
		Fidelity: FidelityProbe,
		Result: &report.Result{
			Hardware: report.Hardware{GBufBytes: gbuf},
			Cost:     cost,
		},
	}
}

func TestPromoteSelection(t *testing.T) {
	// Buffers 1/2/4 MiB; index 1 dominates at 2 MiB, index 3 is far off the
	// front at 4 MiB, index 0 defines the 1 MiB front corner.
	probes := []Row{
		probeRow(0, 1<<20, 100),
		probeRow(1, 2<<20, 50),
		probeRow(2, 2<<20, 55), // within 10% of the 2 MiB front
		probeRow(3, 4<<20, 500),
		{Point: Point{Index: 4}, Fidelity: FidelityProbe, Err: "infeasible"},
	}
	// promote consumes the already-resolved block verbatim, so Explore: 0
	// here really means no exploration quota (withDefaults would turn 0
	// into the grid-scaled default).
	ad := Adaptive{Budget: 3, Epsilon: 0.25, Explore: 0}
	promoted, explored, dists := promote(probes, ad, 1)
	if explored != 0 {
		t.Fatalf("explore=0 but explored %d", explored)
	}
	// Front points (dist 0) rank first: 0, 1; then 2 (dist 0.1). 3 (dist 9)
	// and the failed 4 never make a 3-slot band.
	if len(promoted) != 3 || promoted[0] != 0 || promoted[1] != 1 || promoted[2] != 2 {
		t.Fatalf("promoted = %v, want [0 1 2]", promoted)
	}
	if dists[0] != 0 || dists[1] != 0 || math.Abs(dists[2]-0.1) > 1e-9 || !math.IsNaN(dists[4]) {
		t.Fatalf("dists = %v", dists)
	}

	// An exploration quota fills from outside the band, deterministically
	// under a fixed seed, and never picks failed probes.
	ad = Adaptive{Budget: 3, Epsilon: 0.01, Explore: 1}
	p1, e1, _ := promote(probes, ad, 7)
	p2, e2, _ := promote(probes, ad, 7)
	if e1 != 1 || e2 != 1 {
		t.Fatalf("explored = %d/%d, want 1", e1, e2)
	}
	if len(p1) != 3 || !equalInts(p1, p2) {
		t.Fatalf("seeded exploration not deterministic: %v vs %v", p1, p2)
	}
	for _, i := range p1 {
		if i == 4 {
			t.Fatal("promoted a failed probe")
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPromoteAllFailed(t *testing.T) {
	probes := []Row{
		{Point: Point{Index: 0}, Fidelity: FidelityProbe, Err: "x"},
		{Point: Point{Index: 1}, Fidelity: FidelityProbe, Err: "y"},
	}
	promoted, explored, _ := promote(probes, Adaptive{}.withDefaults(2), 1)
	if len(promoted) != 0 || explored != 0 {
		t.Fatalf("promoted from all-failed probes: %v", promoted)
	}
}

func TestAdaptiveValidate(t *testing.T) {
	sw := fastSweep(1)
	sw.Adaptive = &Adaptive{Budget: -1}
	if err := sw.Validate(); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("negative budget accepted: %v", err)
	}
	sw.Adaptive = &Adaptive{Epsilon: -0.5}
	if err := sw.Validate(); err == nil || !strings.Contains(err.Error(), "epsilon") {
		t.Fatalf("negative epsilon accepted: %v", err)
	}
	sw.Adaptive = &Adaptive{Explore: -2}
	if err := sw.Validate(); err == nil || !strings.Contains(err.Error(), "explore") {
		t.Fatalf("negative explore accepted: %v", err)
	}
	sw.Adaptive = &Adaptive{}
	if err := sw.Validate(); err != nil {
		t.Fatalf("empty adaptive block rejected: %v", err)
	}
}

// The adaptive block is part of the spec digest: adaptive and exhaustive
// journals of the same grid can never resume into each other.
func TestAdaptiveChangesDigest(t *testing.T) {
	ex := fastSweep(1)
	ad := fastSweep(1)
	ad.Adaptive = &Adaptive{}
	de, err1 := ex.SpecSHA256()
	da, err2 := ad.SpecSHA256()
	if err1 != nil || err2 != nil || de == da {
		t.Fatalf("digests: %v %v / %s vs %s", err1, err2, de, da)
	}
}

// Run must dispatch adaptive specs to RunAdaptive and stream the rung
// events between the usual sweep/point events.
func TestRunDispatchesAdaptive(t *testing.T) {
	sw := fastSweep(2)
	sw.Adaptive = &Adaptive{}
	var mu sync.Mutex
	rungs := map[string]int{}
	hooks := &engine.Hooks{Event: func(e engine.Event) {
		if e.Kind == "rung-start" || e.Kind == "rung-done" {
			mu.Lock()
			rungs[e.Kind+"/"+e.Stage]++
			mu.Unlock()
		}
	}}
	o := obs.New()
	out, err := Run(context.Background(), sw, Options{Hooks: hooks, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if out.Adaptive == nil {
		t.Fatal("Run on an adaptive spec returned no adaptive stats")
	}
	for _, k := range []string{"rung-start/probe", "rung-done/probe", "rung-start/full", "rung-done/full"} {
		if rungs[k] != 1 {
			t.Fatalf("rung events = %v", rungs)
		}
	}
	// The adaptive metric family is populated.
	snaps := o.Registry().Snapshot()
	found := false
	for _, s := range snaps {
		if s.Name == "dse_adaptive_promotions_total" {
			found = true
		}
	}
	if !found {
		t.Fatal("dse_adaptive_promotions_total not recorded")
	}
}

// A full row that is not the next recomputed promotion ends the trusted
// journal prefix (distrust-the-tail), so a resume recomputes from there
// instead of committing a contradictory file.
func TestAdaptiveLoadJournalDistrustsBadFullRow(t *testing.T) {
	dir := t.TempDir()
	sw := adaptiveFixture(t, false, 2)
	path := filepath.Join(dir, "j.jsonl")
	if _, err := Run(context.Background(), sw, Options{Journal: path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	n := sw.GridSize()

	// Load the intact journal to learn the recomputed promotion set, then
	// swap the first full row for a probe row re-labeled "full" whose point
	// index is not the first promotion - contradicting the deterministic
	// full-row sequence.
	a, err := newAdaptiveRun(sw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.load(path); err != nil {
		t.Fatal(err)
	}
	src := 1 // probe row of point 0
	if a.promoted[0] == 0 {
		src = 2 // probe row of point 1
	}
	lines[n+1] = strings.Replace(lines[src], `"fidelity":"probe"`, `"fidelity":"full"`, 1)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	b, err := newAdaptiveRun(sw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	kept, err := b.load(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.probeDone != n || b.fullDone != 0 || len(kept) != n {
		t.Fatalf("kept %d lines, ProbeDone=%d FullDone=%d; want all probes and no fulls",
			len(kept), b.probeDone, b.fullDone)
	}
}

// Probe rows that skip an index end the trusted prefix too.
func TestAdaptiveLoadJournalDistrustsGappedProbes(t *testing.T) {
	dir := t.TempDir()
	sw := adaptiveFixture(t, false, 1)
	path := filepath.Join(dir, "j.jsonl")
	if _, err := Run(context.Background(), sw, Options{Journal: path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	// Drop probe row 2: everything from there on is distrusted.
	torn := append(append([]string{}, lines[:3]...), lines[4:]...)
	if err := os.WriteFile(path, []byte(strings.Join(torn, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := newAdaptiveRun(sw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	kept, err := a.load(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.probeDone != 2 || len(kept) != 2 {
		t.Fatalf("ProbeDone=%d kept=%d, want 2", a.probeDone, len(kept))
	}
}
