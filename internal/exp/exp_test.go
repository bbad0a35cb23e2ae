package exp

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"soma/internal/core"
	"soma/internal/dse"
	"soma/internal/hw"
	"soma/internal/models"
	"soma/internal/soma"
)

func TestWorkloadsPairing(t *testing.T) {
	edge := Workloads("edge")
	cloud := Workloads("cloud")
	if len(edge) != 6 || len(cloud) != 6 {
		t.Fatalf("workload counts: %d %d", len(edge), len(cloud))
	}
	joinE, joinC := strings.Join(edge, ","), strings.Join(cloud, ",")
	if !strings.Contains(joinE, "gpt2s-") || strings.Contains(joinE, "gpt2xl") {
		t.Fatalf("edge pairing wrong: %v", edge)
	}
	if !strings.Contains(joinC, "gpt2xl-") || strings.Contains(joinC, "gpt2s-") {
		t.Fatalf("cloud pairing wrong: %v", cloud)
	}
	for _, w := range append(edge, cloud...) {
		if _, err := models.Build(w, 1); err != nil {
			t.Fatalf("workload %s unbuildable: %v", w, err)
		}
	}
}

// TestParallelMapPreservesOrder: Pairs runs its cases on the dse worker
// pool and still pairs each case's cocco and soma rows in case order,
// identically for any worker count.
func TestParallelMapPreservesOrder(t *testing.T) {
	fast := &dse.Search{Profile: "fast"}
	sweep := func(workers int) dse.Sweep {
		return dse.Sweep{Platforms: []string{"edge"}, Models: []string{"resnet50", "mobilenetv2"},
			Batches: []int{1, 2}, Search: fast, Workers: workers}
	}
	want := []Case{{"edge", "resnet50", 1}, {"edge", "resnet50", 2},
		{"edge", "mobilenetv2", 1}, {"edge", "mobilenetv2", 2}}
	var groups [][]PairResult
	for _, workers := range []int{1, 3} {
		pairs, err := Pairs(context.Background(), sweep(workers), dse.Options{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(pairs) != len(want) {
			t.Fatalf("workers=%d: %d pairs, want %d", workers, len(pairs), len(want))
		}
		var rs []PairResult
		for i, p := range pairs {
			for j, backend := range []string{"cocco", "soma"} {
				pt := p[j].Point
				if pt.Backend != backend || (Case{pt.Platform, pt.Model, pt.Batch}) != want[i] {
					t.Fatalf("workers=%d pair %d row %d = %s, want %s on %s", workers, i, j, pt.Label(), backend, want[i])
				}
			}
			r := BarGroup(p)
			if r.Err != nil {
				t.Fatalf("workers=%d %s: %v", workers, r.Case, r.Err)
			}
			if r.Case != want[i] {
				t.Fatalf("workers=%d pair %d case = %s, want %s", workers, i, r.Case, want[i])
			}
			rs = append(rs, r)
		}
		groups = append(groups, rs)
	}
	if !reflect.DeepEqual(groups[0], groups[1]) {
		t.Fatal("bar groups differ between 1 and 3 workers")
	}
}

// TestRunPairProducesOrderedRows: one case's bar group carries the three
// schemes in order, Ours_1's structure counts are the stage-1 schedule's,
// and the paper's headline results hold.
func TestRunPairProducesOrderedRows(t *testing.T) {
	pairs, err := Pairs(context.Background(), dse.Sweep{Platforms: []string{"edge"},
		Models: []string{"resnet50"}, Batches: []int{1}, Search: &dse.Search{Profile: "fast"}},
		dse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 {
		t.Fatalf("%d pairs, want 1", len(pairs))
	}
	r := BarGroup(pairs[0])
	if r.Err != nil {
		t.Fatalf("%s: %v", r.Case, r.Err)
	}
	if want := (Case{"edge", "resnet50", 1}); r.Case != want {
		t.Fatalf("case = %s, want %s", r.Case, want)
	}
	raw := pairs[0][1].Result.Raw
	s1, err := core.Parse(raw.Graph, raw.Encoding)
	if err != nil {
		t.Fatal(err)
	}
	st := s1.Summarize()
	if r.Ours1.Tiles != st.Tiles || r.Ours1.Tensors != st.Tensors || r.Ours1.LGs != st.LGs ||
		r.Ours1.FLGs != st.FLGs || r.Ours1.DRAMBytes != st.DRAMBytes {
		t.Fatalf("Ours_1 counts %+v differ from the stage-1 parse %+v", r.Ours1, st)
	}
	if r.Cocco.Scheme != "cocco" || r.Ours1.Scheme != "ours1" || r.Ours2.Scheme != "ours2" {
		t.Fatalf("schemes: %s %s %s", r.Cocco.Scheme, r.Ours1.Scheme, r.Ours2.Scheme)
	}
	// Stage 2 must never be slower than stage 1 (same LFA, explored DLSA).
	if r.Ours2.LatencyNS > r.Ours1.LatencyNS*1.0001 {
		t.Fatalf("stage 2 regressed: %g > %g", r.Ours2.LatencyNS, r.Ours1.LatencyNS)
	}
	// The headline result: SoMa beats the baseline on ResNet-50.
	if r.Ours2.LatencyNS >= r.Cocco.LatencyNS {
		t.Fatalf("SoMa %g slower than Cocco %g", r.Ours2.LatencyNS, r.Cocco.LatencyNS)
	}
	if r.Ours2.EnergyPJ >= r.Cocco.EnergyPJ {
		t.Fatalf("SoMa energy %g above Cocco %g", r.Ours2.EnergyPJ, r.Cocco.EnergyPJ)
	}
	// Fusion statistics go the paper's way.
	if r.Cocco.Tiles <= r.Ours2.Tiles || r.Cocco.LGs <= r.Ours2.LGs {
		t.Fatalf("fusion stats inverted: %+v vs %+v", r.Cocco, r.Ours2)
	}
}

func TestPairsUnknownWorkload(t *testing.T) {
	fast := &dse.Search{Profile: "fast"}
	for _, sw := range []dse.Sweep{
		{Platforms: []string{"edge"}, Models: []string{"nope"}, Search: fast},
		{Platforms: []string{"nope"}, Models: []string{"resnet50"}, Search: fast},
	} {
		if _, err := Pairs(context.Background(), sw, dse.Options{}); err == nil {
			t.Fatalf("%v/%v must error", sw.Platforms, sw.Models)
		}
	}
}

func TestSummarizeGeoMeans(t *testing.T) {
	rs := []PairResult{
		{
			Cocco: Row{LatencyNS: 200, EnergyPJ: 100},
			Ours1: Row{LatencyNS: 120, EnergyPJ: 80},
			Ours2: Row{LatencyNS: 100, EnergyPJ: 70, Util: 0.4, TheoUtil: 0.5},
		},
		{
			Cocco: Row{LatencyNS: 400, EnergyPJ: 100},
			Ours1: Row{LatencyNS: 250, EnergyPJ: 90},
			Ours2: Row{LatencyNS: 200, EnergyPJ: 80, Util: 0.45, TheoUtil: 0.5},
		},
		{Err: errString("bad")}, // skipped
	}
	gm := Summarize(rs)
	if gm.N != 2 {
		t.Fatalf("N = %d", gm.N)
	}
	if gm.SpeedupStage2 < 1.9 || gm.SpeedupStage2 > 2.1 {
		t.Fatalf("speedup = %g, want ~2", gm.SpeedupStage2)
	}
	if gm.EnergyRatio >= 1 {
		t.Fatalf("energy ratio = %g", gm.EnergyRatio)
	}
	if gm.Stage2Extra <= 1 {
		t.Fatalf("stage-2 extra = %g", gm.Stage2Extra)
	}
	if gm.GapToBound <= 0 || gm.GapToBound >= 1 {
		t.Fatalf("gap = %g", gm.GapToBound)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summary must be zero")
	}
}

type errString string

func (e errString) Error() string { return string(e) }

func TestFig3LayersNormalization(t *testing.T) {
	g, _ := models.Build("resnet50", 1)
	pts := Fig3Layers(g)
	if len(pts) != len(g.ComputeLayers()) {
		t.Fatalf("points = %d", len(pts))
	}
	var maxOps, maxDRAM float64
	for _, p := range pts {
		if p.NormOps < 0 || p.NormOps > 1 || p.NormDRAM < 0 || p.NormDRAM > 1 {
			t.Fatalf("point out of range: %+v", p)
		}
		if p.NormOps > maxOps {
			maxOps = p.NormOps
		}
		if p.NormDRAM > maxDRAM {
			maxDRAM = p.NormDRAM
		}
	}
	if maxOps != 1 || maxDRAM != 1 {
		t.Fatalf("normalization must reach 1: %g %g", maxOps, maxDRAM)
	}
}

func TestFig3TilesMoreSpreadThanLayers(t *testing.T) {
	g, _ := models.Build("resnet50", 1)
	cfg, _ := hw.Platform("edge")
	layers := Fig3Layers(g)
	tiles, err := Fig3Tiles(g, cfg, soma.FastParams())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Fig. 3 claim: per-tile points are more spread out.
	if Spread(tiles) <= Spread(layers) {
		t.Fatalf("tiles spread %g <= layers spread %g", Spread(tiles), Spread(layers))
	}
	// And many tiles hug the axes (no-DRAM tiles and weight-load tiles).
	axisTiles := 0
	for _, p := range tiles {
		if p.NormOps < 0.05 || p.NormDRAM < 0.05 {
			axisTiles++
		}
	}
	if float64(axisTiles) < 0.3*float64(len(tiles)) {
		t.Fatalf("only %d/%d tiles near the axes", axisTiles, len(tiles))
	}
}

func TestSpreadEdgeCases(t *testing.T) {
	if Spread(nil) != 0 {
		t.Fatal("empty spread must be 0")
	}
	pts := []ScatterPoint{{NormOps: 1, NormDRAM: 0}, {NormOps: 0, NormDRAM: 1}}
	if Spread(pts) != 1 {
		t.Fatalf("spread = %g", Spread(pts))
	}
}
