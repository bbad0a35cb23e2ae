package dse

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"soma/internal/report"
	"soma/internal/soma"
)

func TestParseSweepStrict(t *testing.T) {
	sw, err := ParseSweep([]byte(`{"models":["resnet50"],"gbuf_mb":[4,8]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Models) != 1 || len(sw.GBufMB) != 2 {
		t.Fatalf("parsed = %+v", sw)
	}
	if _, err := ParseSweep([]byte(`{"modles":["resnet50"]}`)); err == nil {
		t.Fatal("typoed axis name accepted")
	}
	if _, err := ParseSweep([]byte(`{`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	// A stray closing bracket after the object is trailing data too.
	for _, in := range []string{`{"models":["resnet50"]}}`, `{"models":["resnet50"]}]`} {
		if _, err := ParseSweep([]byte(in)); err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("ParseSweep(%s): err = %v, want trailing data", in, err)
		}
	}
}

// TestParseSweepRejectsParamsBlock: search is the spec's only parameter
// block, so a spec carrying a whole soma.Params struct is refused like any
// other unknown field.
func TestParseSweepRejectsParamsBlock(t *testing.T) {
	_, err := ParseSweep([]byte(`{"models":["mobilenetv2"],"params":{"Beta1":2,"T0":0.5}}`))
	if err == nil || !strings.Contains(err.Error(), `"params"`) {
		t.Fatalf("params block: err = %v, want an unknown-field error", err)
	}
}

// TestCheckServed: the served-grid bound counts the cross product without
// expanding it, and admits a grid of exactly MaxServedPoints.
func TestCheckServed(t *testing.T) {
	sw := Sweep{Models: []string{"resnet50"}, Seeds: make([]int64, MaxServedPoints)}
	if err := sw.CheckServed(); err != nil {
		t.Fatalf("grid of %d points refused: %v", MaxServedPoints, err)
	}
	sw.Batches = []int{1, 2}
	err := sw.CheckServed()
	if want := fmt.Sprintf("sweep expands to %d points, limit %d", 2*MaxServedPoints, MaxServedPoints); err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		sw   Sweep
		want string // substring of the expected error ("" = valid)
	}{
		{"minimal model", Sweep{Models: []string{"resnet50"}}, ""},
		{"minimal scenario", Sweep{Scenarios: []string{"multi-tenant-cnn"}}, ""},
		{"no workload", Sweep{}, "at least one model"},
		{"unknown model", Sweep{Models: []string{"nope"}}, "unknown model"},
		{"unknown platform", Sweep{Models: []string{"resnet50"}, Platforms: []string{"tpu"}}, "unknown platform"},
		{"unknown backend", Sweep{Models: []string{"resnet50"}, Backends: []string{"magic"}}, "unknown backend"},
		{"unknown scenario", Sweep{Scenarios: []string{"nope"}}, "unknown"},
		{"scenario on cocco", Sweep{Scenarios: []string{"multi-tenant-cnn"}, Backends: []string{"cocco"}}, "soma backend only"},
		{"bad batch", Sweep{Models: []string{"resnet50"}, Batches: []int{0}}, "batch must be positive"},
		{"bad dram", Sweep{Models: []string{"resnet50"}, DRAMGBs: []float64{-1}}, "dram_gbps"},
		{"bad gbuf", Sweep{Models: []string{"resnet50"}, GBufMB: []int64{-4}}, "gbuf_mb"},
		{"largest gbuf", Sweep{Models: []string{"resnet50"}, GBufMB: []int64{math.MaxInt64 >> 20}}, ""},
		{"gbuf overflows bytes", Sweep{Models: []string{"resnet50"}, GBufMB: []int64{1 << 43}}, "gbuf_mb"},
		{"bad profile", Sweep{Models: []string{"resnet50"}, Search: &Search{Profile: "turbo"}}, "unknown profile"},
	}
	for _, c := range cases {
		err := c.sw.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: error not detected", c.name)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestExpandOrderAndDefaults(t *testing.T) {
	sw := Sweep{
		Models:  []string{"resnet50", "mobilenetv2"},
		DRAMGBs: []float64{8, 16},
		GBufMB:  []int64{2, 4},
		Seeds:   []int64{1, 2},
	}
	pts, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2*2*2*2 {
		t.Fatalf("points = %d, want 16", len(pts))
	}
	// Defaults fill the unset axes.
	if pts[0].Backend != "soma" || pts[0].Platform != "edge" || pts[0].Batch != 1 ||
		pts[0].Objective != (report.Objective{N: 1, M: 1}) {
		t.Fatalf("defaults not applied: %+v", pts[0])
	}
	// Canonical nesting: model is outer, then dram, gbuf, seed (innermost).
	if pts[0].Seed != 1 || pts[1].Seed != 2 {
		t.Fatalf("seed must be the innermost axis: %+v %+v", pts[0], pts[1])
	}
	if pts[0].GBufMB != 2 || pts[2].GBufMB != 4 {
		t.Fatalf("gbuf nesting wrong: %+v %+v", pts[0], pts[2])
	}
	if pts[0].DRAMGBs != 8 || pts[4].DRAMGBs != 16 {
		t.Fatalf("dram nesting wrong: %+v %+v", pts[0], pts[4])
	}
	if pts[0].Model != "resnet50" || pts[8].Model != "mobilenetv2" {
		t.Fatalf("model nesting wrong: %+v %+v", pts[0], pts[8])
	}
	for i, p := range pts {
		if p.Index != i {
			t.Fatalf("index %d recorded as %d", i, p.Index)
		}
	}
	// Expansion is deterministic.
	again, _ := sw.Expand()
	for i := range pts {
		if pts[i] != again[i] {
			t.Fatalf("expansion not deterministic at %d: %+v vs %+v", i, pts[i], again[i])
		}
	}
}

func TestExpandScenarioSkipsBatchAxis(t *testing.T) {
	sw := Sweep{Scenarios: []string{"multi-tenant-cnn"}, Batches: []int{1, 4}}
	pts, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("scenario points must ignore the batch axis: %d points", len(pts))
	}
	if pts[0].Scenario != "multi-tenant-cnn" || pts[0].Batch != 0 {
		t.Fatalf("point = %+v", pts[0])
	}
}

func TestPointRequestHWOverride(t *testing.T) {
	p := Point{Backend: "soma", Platform: "edge", Model: "resnet50", Batch: 1,
		DRAMGBs: 32, GBufMB: 8, Objective: report.Objective{N: 1, M: 1}, Seed: 7}
	req, err := p.Request(soma.FastParams())
	if err != nil {
		t.Fatal(err)
	}
	if req.Config == nil {
		t.Fatal("hw override not applied")
	}
	// DRAM-then-GBuf composition preserves the pre-dse Fig. 7 preset names.
	if req.Config.Name != "edge-d32-b8MB" {
		t.Fatalf("config name = %q", req.Config.Name)
	}
	if req.Config.DRAMBandwidth != 32 || req.Config.GBufBytes != 8<<20 {
		t.Fatalf("override values wrong: %+v", req.Config)
	}
	if req.Params.Seed != 7 {
		t.Fatalf("seed not stamped: %d", req.Params.Seed)
	}

	// Without overrides the preset resolves by name (Config stays nil).
	p.DRAMGBs, p.GBufMB = 0, 0
	req, err = p.Request(soma.FastParams())
	if err != nil || req.Config != nil {
		t.Fatalf("preset point must not override config: %+v %v", req.Config, err)
	}
}

func TestLabel(t *testing.T) {
	p := Point{Backend: "soma", Platform: "edge", Model: "resnet50", Batch: 4,
		DRAMGBs: 32, GBufMB: 8, Objective: report.Objective{N: 1, M: 2}, Seed: 3}
	want := "soma/edge/resnet50/b4/d32/g8MB/e1d2/s3"
	if p.Label() != want {
		t.Fatalf("label = %q, want %q", p.Label(), want)
	}
	sp := Point{Backend: "soma", Platform: "edge", Scenario: "multi-tenant-cnn",
		Objective: report.Objective{N: 1, M: 1}, Seed: 1}
	if got := sp.Label(); got != "soma/edge/scenario:multi-tenant-cnn/s1" {
		t.Fatalf("scenario label = %q", got)
	}
}

func TestSpecDigestStable(t *testing.T) {
	sw := Sweep{Models: []string{"resnet50"}, GBufMB: []int64{2, 4}}
	a, err := sw.SpecSHA256()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sw.SpecSHA256()
	if a != b || len(a) != 64 {
		t.Fatalf("digest unstable: %q vs %q", a, b)
	}
	sw.GBufMB = []int64{2, 8}
	if c, _ := sw.SpecSHA256(); c == a {
		t.Fatal("digest must change with the spec")
	}
}

func row(gbuf int64, cost float64) Row {
	return Row{Result: &report.Result{Cost: cost,
		Hardware: report.Hardware{GBufBytes: gbuf}}}
}

func TestFront(t *testing.T) {
	rows := []Row{
		row(2<<20, 10), // on front (smallest buffer)
		row(4<<20, 8),  // on front
		row(4<<20, 9),  // x-tie, higher cost: dominated
		row(8<<20, 8),  // more buffer, same cost: dominated
		row(16<<20, 5), // on front
		{Err: "infeasible"},
	}
	got := CostVsBufferFront(rows)
	want := []int{0, 1, 4}
	if len(got) != len(want) {
		t.Fatalf("front = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("front = %v, want %v", got, want)
		}
	}
	// A single buffer size has no meaningful frontier.
	if CostVsBufferFront(rows[:1]) != nil {
		t.Fatal("single-size front must be nil")
	}
}

func TestScrubbed(t *testing.T) {
	r := Row{Result: &report.Result{
		Cost: 7,
		Raw:  &report.Raw{},
		Search: &report.Search{AllocIters: 3, Stage2Cost: 7,
			CacheHits: 100, CacheMisses: 50, CacheEntries: 50, CacheGenerations: 1},
		Scenario: &report.ScenarioInfo{Components: []report.ScenarioComponent{
			{Isolated: &report.Result{Raw: &report.Raw{},
				Search: &report.Search{CacheHits: 9}}},
		}},
	}}
	s := r.Scrubbed()
	if s.Result.Raw != nil || s.Result.Search.CacheHits != 0 || s.Result.Search.CacheMisses != 0 {
		t.Fatalf("scrub incomplete: %+v", s.Result)
	}
	if iso := s.Result.Scenario.Components[0].Isolated; iso.Raw != nil || iso.Search.CacheHits != 0 {
		t.Fatalf("scenario component not scrubbed: %+v", iso)
	}
	// Search stats that describe the search itself survive.
	if s.Result.Search.AllocIters != 3 || s.Result.Search.Stage2Cost != 7 {
		t.Fatalf("over-scrubbed: %+v", s.Result.Search)
	}
	// The original row is untouched (scrub copies).
	if r.Result.Raw == nil || r.Result.Search.CacheHits != 100 ||
		r.Result.Scenario.Components[0].Isolated.Search.CacheHits != 9 {
		t.Fatalf("scrub mutated the source: %+v", r.Result)
	}
	if (Row{Err: "x"}).Scrubbed().Result != nil {
		t.Fatal("error rows pass through")
	}
}
