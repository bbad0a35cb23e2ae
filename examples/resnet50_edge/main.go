// ResNet-50 on the edge accelerator: the paper's running example
// (Sec. VII-B). Compares the Cocco baseline against SoMa's two stages and
// prints where the gains come from - fewer/coarser tiles, more fusion, and
// DRAM idle-time exploitation.
//
// Run: go run ./examples/resnet50_edge [-batch N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"soma/internal/core"
	"soma/internal/engine"
	"soma/internal/report"
	"soma/internal/sim"
	"soma/internal/soma"
)

func main() {
	batch := flag.Int("batch", 1, "batch size")
	flag.Parse()

	// One request, two backends: the baseline and SoMa solve the identical
	// problem (the somad API and the soma CLI route every search through
	// the same engine.Run).
	req := engine.Request{Model: "resnet50", Batch: *batch, Platform: "edge",
		Params: soma.DefaultParams()}
	solve := func(backend string) *report.Result {
		req.Backend = backend
		res, err := engine.Run(context.Background(), req, nil)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	base, ours := solve("cocco"), solve("soma")

	describe("Cocco (baseline)", base.Raw.Schedule, base.Raw.Metrics)
	s1, err := core.Parse(ours.Raw.Graph, ours.Raw.Encoding)
	if err != nil {
		log.Fatal(err)
	}
	describe("SoMa stage 1 (LFA: fusion + tiling + order)", s1, ours.Raw.Stage1Metrics)
	describe("SoMa stage 2 (+DLSA: prefetch & delayed store)", ours.Raw.Schedule, ours.Raw.Metrics)

	m2, mc := ours.Raw.Metrics, base.Raw.Metrics
	fmt.Printf("\nSoMa vs Cocco: %.2fx faster, %.1f%% less energy, %.1fx fewer tiles\n",
		mc.LatencyNS/m2.LatencyNS,
		100*(1-m2.EnergyPJ/mc.EnergyPJ),
		float64(base.Raw.Schedule.NumTiles())/float64(ours.Raw.Schedule.NumTiles()))
	fmt.Printf("stage 2 closes %.1f%% of the gap to the no-stall bound (util %.2f%% of %.2f%%)\n",
		100*m2.Utilization/m2.TheoreticalMaxUtil, 100*m2.Utilization, 100*m2.TheoreticalMaxUtil)
}

func describe(name string, s *core.Schedule, m *sim.Metrics) {
	st := s.Summarize()
	fmt.Printf("%-48s lat=%8.3fms energy=%7.3fmJ util=%6.2f%% dram=%7.2fMB tiles=%5d LGs=%2d FLGs=%2d tiling=%v\n",
		name, m.LatencyNS/1e6, m.EnergyPJ/1e9, 100*m.Utilization,
		float64(st.DRAMBytes)/(1<<20), st.Tiles, st.LGs, st.FLGs, s.Enc.Tile)
}
