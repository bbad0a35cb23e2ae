package exp

import (
	"context"
	"fmt"
	"math"

	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/dse"
	"soma/internal/engine"
	"soma/internal/graph"
	"soma/internal/hw"
	"soma/internal/sim"
	"soma/internal/soma"
)

// Workloads returns the paper's Fig. 6 workload list for a platform (GPT-2
// Small on edge, XL on cloud).
func Workloads(platform string) []string {
	gpt := "gpt2s"
	if platform == "cloud" {
		gpt = "gpt2xl"
	}
	return []string{"resnet50", "resnet101", "ires", "randwire",
		gpt + "-prefill", gpt + "-decode"}
}

// Batches are the paper's batch-size sweep.
var Batches = []int{1, 4, 16, 64}

// Row is one scheme's measured data point (one bar group of Fig. 6).
type Row struct {
	Scheme    string
	LatencyNS float64
	EnergyPJ  float64
	CorePJ    float64
	DRAMPJ    float64
	Util      float64
	TheoUtil  float64
	AvgBufMB  float64
	PeakBufMB float64
	DRAMBytes int64
	Tiles     int
	Tensors   int
	LGs       int
	FLGs      int
}

func rowFromMetrics(scheme string, m *sim.Metrics, s *core.Schedule) Row {
	st := s.Summarize()
	return Row{
		Scheme:    scheme,
		LatencyNS: m.LatencyNS,
		EnergyPJ:  m.EnergyPJ,
		CorePJ:    m.CoreEnergyPJ,
		DRAMPJ:    m.DRAMEnergyPJ,
		Util:      m.Utilization,
		TheoUtil:  m.TheoreticalMaxUtil,
		AvgBufMB:  m.AvgBufferBytes / (1 << 20),
		PeakBufMB: float64(m.PeakBufferBytes) / (1 << 20),
		DRAMBytes: m.TotalDRAMBytes,
		Tiles:     st.Tiles,
		Tensors:   st.Tensors,
		LGs:       st.LGs,
		FLGs:      st.FLGs,
	}
}

// Case identifies one experiment point.
type Case struct {
	Platform string
	Workload string
	Batch    int
}

func (c Case) String() string {
	return fmt.Sprintf("%s/%s/b%d", c.Platform, c.Workload, c.Batch)
}

// PairResult is one Fig. 6 bar group: Cocco vs SoMa stage 1 vs stage 2.
type PairResult struct {
	Case  Case
	Cocco Row
	Ours1 Row
	Ours2 Row
	Err   error
}

// Pairs solves sw on the cocco and soma backends as one dse sweep and
// returns each case's two rows, {cocco, soma}, in case order. The backend
// axis expands outermost, so with n cases row i pairs with row i+n. The rows
// keep Result.Raw for figure callers.
func Pairs(ctx context.Context, sw dse.Sweep, opt dse.Options) ([][2]dse.Row, error) {
	sw.Backends = []string{"cocco", "soma"}
	res, err := dse.Run(ctx, sw, opt)
	if err != nil {
		return nil, err
	}
	n := len(res.Rows) / 2
	out := make([][2]dse.Row, n)
	for i := range out {
		out[i] = [2]dse.Row{res.Rows[i], res.Rows[i+n]}
	}
	return out, nil
}

// BarGroup shapes one case's {cocco, soma} rows into a Fig. 6 bar group.
// Ours_1 is the stage-1 metrics of the SoMa run; its structure counts come
// from the stage-2 schedule, since stage 2 explores only the DLSA and tiles,
// tensors, LGs, FLGs and DRAM bytes do not depend on it.
func BarGroup(p [2]dse.Row) PairResult {
	pt := p[1].Point
	out := PairResult{Case: Case{Platform: pt.Platform, Workload: pt.Model, Batch: pt.Batch}}
	for _, r := range p {
		if r.Err != "" {
			out.Err = fmt.Errorf("%s: backend %s: %s", out.Case, r.Point.Backend, r.Err)
			return out
		}
	}
	base, ours := p[0].Result.Raw, p[1].Result.Raw
	out.Cocco = rowFromMetrics("cocco", base.Metrics, base.Schedule)
	out.Ours1 = rowFromMetrics("ours1", ours.Stage1Metrics, ours.Schedule)
	out.Ours2 = rowFromMetrics("ours2", ours.Metrics, ours.Schedule)
	return out
}

// Fig6 runs the overall comparison: every workload of each platform (GPT-2
// Small on edge, XL on cloud) at every batch size, one Pairs sweep per
// platform, searched with the given block and seed (used as given, 0
// included). Both sweeps share opt.Cache (a fresh one when nil), so the
// caller can read the hit rate across cases from it.
func Fig6(ctx context.Context, platforms []string, batches []int, search dse.Search, seed int64, workers int, opt dse.Options) ([]PairResult, error) {
	if opt.Cache == nil {
		opt.Cache = sim.NewCache(0)
	}
	var out []PairResult
	for _, pf := range platforms {
		pairs, err := Pairs(ctx, dse.Sweep{Name: "fig6-" + pf, Platforms: []string{pf},
			Models: Workloads(pf), Batches: batches, Search: &search, Seeds: []int64{seed},
			Workers: workers}, opt)
		if err != nil {
			return nil, err
		}
		for _, p := range pairs {
			out = append(out, BarGroup(p))
		}
	}
	return out, nil
}

// GeoMeans summarizes Fig. 6 results the way Sec. VI-B reports them:
// geometric-mean speedups and energy ratios of SoMa over Cocco.
type GeoMeans struct {
	SpeedupStage1 float64 // Ours_1 vs Cocco
	SpeedupStage2 float64 // Ours_2 vs Cocco
	Stage2Extra   float64 // Ours_2 vs Ours_1
	EnergyRatio   float64 // Ours_2 / Cocco energy
	GapToBound    float64 // mean (bound - util)/bound of Ours_2
	N             int
}

// Summarize folds valid pair results into geometric means.
func Summarize(rs []PairResult) GeoMeans {
	var gm GeoMeans
	logSum := func(acc *float64, v float64) {
		*acc += ln(v)
	}
	var s1, s2, extra, en, gap float64
	for _, r := range rs {
		if r.Err != nil || r.Cocco.LatencyNS == 0 || r.Ours2.LatencyNS == 0 {
			continue
		}
		gm.N++
		logSum(&s1, r.Cocco.LatencyNS/r.Ours1.LatencyNS)
		logSum(&s2, r.Cocco.LatencyNS/r.Ours2.LatencyNS)
		logSum(&extra, r.Ours1.LatencyNS/r.Ours2.LatencyNS)
		logSum(&en, r.Ours2.EnergyPJ/r.Cocco.EnergyPJ)
		gap += (r.Ours2.TheoUtil - r.Ours2.Util) / r.Ours2.TheoUtil
	}
	if gm.N == 0 {
		return gm
	}
	n := float64(gm.N)
	gm.SpeedupStage1 = exp(s1 / n)
	gm.SpeedupStage2 = exp(s2 / n)
	gm.Stage2Extra = exp(extra / n)
	gm.EnergyRatio = exp(en / n)
	gm.GapToBound = gap / n
	return gm
}

// ScatterPoint is one dot of Fig. 3 (normalized ops vs DRAM access).
type ScatterPoint struct {
	Name     string
	NormOps  float64
	NormDRAM float64
}

// Fig3Layers produces the per-layer scatter of Fig. 3(a)/(b): each compute
// layer's DRAM demand (weights + boundary fmaps, assuming no fusion) against
// its operation count, both normalized to the maximum.
func Fig3Layers(g *graph.Graph) []ScatterPoint {
	var pts []ScatterPoint
	var maxOps, maxDRAM float64
	raw := make([][2]float64, 0, len(g.ComputeLayers()))
	names := make([]string, 0, len(g.ComputeLayers()))
	for _, id := range g.ComputeLayers() {
		l := g.Layer(id)
		dram := float64(l.WeightBytes)
		for _, d := range l.Deps {
			dram += float64(g.OutBytes(d.Producer))
		}
		dram += float64(g.OutBytes(id))
		ops := float64(l.Ops)
		raw = append(raw, [2]float64{ops, dram})
		names = append(names, l.Name)
		if ops > maxOps {
			maxOps = ops
		}
		if dram > maxDRAM {
			maxDRAM = dram
		}
	}
	for i, r := range raw {
		pts = append(pts, ScatterPoint{Name: names[i],
			NormOps: r[0] / maxOps, NormDRAM: r[1] / maxDRAM})
	}
	return pts
}

// Fig3Tiles produces the per-tile scatter of Fig. 3(c)/(d) under the Cocco
// baseline schedule: each computing tile's DRAM demand (the loads it first
// uses and the stores of its output) against its operation count.
func Fig3Tiles(g *graph.Graph, cfg hw.Config, par soma.Params) ([]ScatterPoint, error) {
	base, err := engine.Run(context.Background(), engine.Request{Backend: "cocco",
		Graph: g, Batch: 1, Config: &cfg, Objective: soma.EDP(), Params: par}, nil)
	if err != nil {
		return nil, err
	}
	s := base.Raw.Schedule
	dramOf := make([]float64, s.NumTiles())
	for i := range s.Tensors {
		t := &s.Tensors[i]
		if t.Kind.IsLoad() {
			dramOf[t.FirstUse] += float64(t.Bytes)
		} else {
			dramOf[t.Producer] += float64(t.Bytes)
		}
	}
	var maxOps, maxDRAM float64
	ops := make([]float64, s.NumTiles())
	for i := 0; i < s.NumTiles(); i++ {
		ops[i] = float64(s.TileRequest(i).Ops)
		if ops[i] > maxOps {
			maxOps = ops[i]
		}
		if dramOf[i] > maxDRAM {
			maxDRAM = dramOf[i]
		}
	}
	if maxDRAM == 0 {
		maxDRAM = 1
	}
	pts := make([]ScatterPoint, s.NumTiles())
	for i := range pts {
		pts[i] = ScatterPoint{
			Name:     fmt.Sprintf("%s#%d", g.Layer(s.Tiles[i].Layer).Name, s.Tiles[i].Index),
			NormOps:  ops[i] / maxOps,
			NormDRAM: dramOf[i] / maxDRAM,
		}
	}
	return pts, nil
}

// Spread quantifies how spread out along the axes a scatter is: the mean
// angular deviation of each point from the balanced diagonal, normalized to
// [0,1] (0 = every point has matched compute/DRAM demand, 1 = every point
// sits on an axis). The paper's Fig. 3 claim is that per-tile points are
// more spread out than per-layer points.
func Spread(pts []ScatterPoint) float64 {
	var acc float64
	n := 0
	for _, p := range pts {
		if p.NormOps == 0 && p.NormDRAM == 0 {
			acc += 1 // degenerate: counts as axis-hugging
			n++
			continue
		}
		angle := math.Atan2(p.NormDRAM, p.NormOps) // 0..pi/2
		acc += math.Abs(angle-math.Pi/4) / (math.Pi / 4)
		n++
	}
	if n == 0 {
		return 0
	}
	return acc / float64(n)
}

// DSEPoint is one cell of Fig. 7's heatmaps.
type DSEPoint struct {
	DRAMGBs  float64
	BufferMB int64
	// LatencyMS per scheme.
	CoccoMS, SoMaMS float64
	CoccoErr        string
	SoMaErr         string
}

// Fig7Grid is the paper's DSE sweep for the 16 TOPS edge accelerator.
var (
	Fig7Bandwidths = []float64{8, 16, 32, 64, 128}
	Fig7Buffers    = []int64{2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20}
)

// Fig7 sweeps DRAM bandwidth x buffer size for one workload/batch: a thin
// adapter over the dse grid runner. Both backends run as one sweep sharing
// one evaluation cache; ctx cancels promptly between (and within) grid
// points. Per-cell search failures surface as the point's CoccoErr/SoMaErr,
// exactly like the paper's infeasible heatmap corners.
func Fig7(ctx context.Context, workload string, batch int, search dse.Search, seed int64, workers int) ([]DSEPoint, error) {
	bufsMB := make([]int64, len(Fig7Buffers))
	for i, b := range Fig7Buffers {
		bufsMB[i] = b >> 20
	}
	res, err := dse.Run(ctx, dse.Sweep{
		Name:      "fig7",
		Backends:  []string{"cocco", "soma"},
		Platforms: []string{"edge"}, Models: []string{workload},
		Batches: []int{batch},
		DRAMGBs: Fig7Bandwidths, GBufMB: bufsMB,
		Search: &search, Seeds: []int64{seed}, Workers: workers,
	}, dse.Options{})
	if err != nil {
		return nil, err
	}
	out := make([]DSEPoint, 0, len(Fig7Bandwidths)*len(Fig7Buffers))
	cell := make(map[[2]float64]int)
	for _, bw := range Fig7Bandwidths {
		for _, buf := range Fig7Buffers {
			cell[[2]float64{bw, float64(buf >> 20)}] = len(out)
			out = append(out, DSEPoint{DRAMGBs: bw, BufferMB: buf >> 20})
		}
	}
	for _, row := range res.Rows {
		i := cell[[2]float64{row.Point.DRAMGBs, float64(row.Point.GBufMB)}]
		var ms float64
		if row.Result != nil {
			ms = row.Result.Metrics.LatencyNS / 1e6
		}
		switch row.Point.Backend {
		case "cocco":
			out[i].CoccoMS, out[i].CoccoErr = ms, row.Err
		case "soma":
			out[i].SoMaMS, out[i].SoMaErr = ms, row.Err
		}
	}
	return out, nil
}

// TracePair renders the Fig. 8 execution graphs: Cocco, SoMa stage 1 and
// SoMa stage 2 schedules of one workload, each with a traced evaluation.
type TracePair struct {
	Cocco, Ours1, Ours2 *core.Schedule
	MCocco, M1, M2      *sim.Metrics
}

// Fig8 produces the three traced schedules for one case: the case's Pairs
// (Cocco and SoMa on the same cell), then the stage-1 parse of the SoMa
// encoding and traced re-evaluations of the three schedules.
func Fig8(ctx context.Context, c Case, search dse.Search, seed int64) (*TracePair, error) {
	cfg, err := hw.Platform(c.Platform)
	if err != nil {
		return nil, err
	}
	cs := coresched.New(cfg)
	pairs, err := Pairs(ctx, dse.Sweep{Name: "fig8", Platforms: []string{c.Platform},
		Models: []string{c.Workload}, Batches: []int{c.Batch}, Search: &search,
		Seeds: []int64{seed}}, dse.Options{})
	if err != nil {
		return nil, err
	}
	for _, row := range pairs[0] {
		if row.Err != "" {
			return nil, fmt.Errorf("%s: %s", row.Point.Label(), row.Err)
		}
	}
	base, ours := pairs[0][0].Result, pairs[0][1].Result
	s1, err := core.Parse(ours.Raw.Graph, ours.Raw.Encoding)
	if err != nil {
		return nil, err
	}
	tp := &TracePair{Cocco: base.Raw.Schedule, Ours1: s1, Ours2: ours.Raw.Schedule}
	if tp.MCocco, err = sim.Evaluate(base.Raw.Schedule, cs, sim.Options{Trace: true}); err != nil {
		return nil, err
	}
	if tp.M1, err = sim.Evaluate(s1, cs, sim.Options{Trace: true}); err != nil {
		return nil, err
	}
	if tp.M2, err = sim.Evaluate(ours.Raw.Schedule, cs, sim.Options{Trace: true}); err != nil {
		return nil, err
	}
	return tp, nil
}
