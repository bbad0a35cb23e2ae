package sim

import (
	"errors"
	"testing"

	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/graph"
	"soma/internal/hw"
	"soma/internal/models"
)

func sh(n, c, h, w int) graph.Shape { return graph.Shape{N: n, C: c, H: h, W: w} }

func kr(kh, kw, s, sw, ph, pw int) graph.Kernel {
	return graph.Kernel{KH: kh, KW: kw, SH: s, SW: sw, PH: ph, PW: pw}
}

// smallNet is a three-conv chain small enough for exhaustive checking.
func smallNet(t testing.TB) *graph.Graph {
	g := graph.New("small", 1)
	in := g.Add(graph.Layer{Name: "in", Kind: graph.Input, Out: sh(1, 16, 32, 32)})
	prev := in
	for i := 0; i < 3; i++ {
		prev = g.Add(graph.Layer{Kind: graph.Conv, Deps: []graph.Dep{{Producer: prev}},
			Out: sh(1, 32, 32, 32), K: kr(3, 3, 1, 1, 1, 1),
			WeightBytes: 32 * 32 * 9, Ops: 2 * 32 * 32 * 9 * 32 * 32})
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("smallNet: %v", err)
	}
	return g
}

func parse(t testing.TB, g *graph.Graph, e *core.Encoding) *core.Schedule {
	s, err := core.Parse(g, e)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

func evalOK(t testing.TB, s *core.Schedule, cfg hw.Config, opt Options) *Metrics {
	m, err := Evaluate(s, coresched.New(cfg), opt)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	return m
}

func TestEvaluateBasicInvariants(t *testing.T) {
	g := smallNet(t)
	s := parse(t, g, core.DefaultEncoding(g, 2))
	m := evalOK(t, s, hw.Edge(), Options{})
	if m.LatencyNS <= 0 || m.EnergyPJ <= 0 {
		t.Fatalf("non-positive metrics: %+v", m)
	}
	if m.EnergyPJ != m.CoreEnergyPJ+m.DRAMEnergyPJ {
		t.Fatalf("energy breakdown mismatch: %g != %g + %g",
			m.EnergyPJ, m.CoreEnergyPJ, m.DRAMEnergyPJ)
	}
	// Latency cannot undercut either resource's busy time.
	if m.LatencyNS < m.ComputeBusyNS || m.LatencyNS < m.DRAMBusyNS {
		t.Fatalf("latency %g below busy times %g/%g", m.LatencyNS, m.ComputeBusyNS, m.DRAMBusyNS)
	}
	if m.Utilization <= 0 || m.Utilization > 1 {
		t.Fatalf("utilization = %g", m.Utilization)
	}
	if m.TheoreticalMaxUtil < m.Utilization {
		t.Fatalf("bound %g below achieved %g", m.TheoreticalMaxUtil, m.Utilization)
	}
	if m.DRAMUtilization <= 0 || m.DRAMUtilization > 1 ||
		m.ComputeUtilization <= 0 || m.ComputeUtilization > 1 {
		t.Fatalf("resource utilizations out of range: %+v", m)
	}
	if m.TotalDRAMBytes != s.TotalDRAMBytes() {
		t.Fatal("DRAM bytes mismatch")
	}
	if m.PeakBufferBytes != s.PeakBuffer() {
		t.Fatal("peak buffer mismatch")
	}
}

func TestMoreDRAMBandwidthNeverSlower(t *testing.T) {
	g := smallNet(t)
	s := parse(t, g, core.DefaultEncoding(g, 2))
	slow := evalOK(t, s, hw.Edge().WithDRAM(4), Options{})
	fast := evalOK(t, s, hw.Edge().WithDRAM(64), Options{})
	if fast.LatencyNS > slow.LatencyNS {
		t.Fatalf("more bandwidth slower: %g > %g", fast.LatencyNS, slow.LatencyNS)
	}
}

func TestFusionSavesDRAMEnergy(t *testing.T) {
	g := smallNet(t)
	unfused := parse(t, g, core.DefaultEncoding(g, 2))
	fusedEnc := core.DefaultEncoding(g, 2)
	for i := range fusedEnc.IsDRAM {
		fusedEnc.IsDRAM[i] = false // one LG, fine-grained cuts only
	}
	fused := parse(t, g, fusedEnc)
	mu := evalOK(t, unfused, hw.Edge(), Options{})
	mf := evalOK(t, fused, hw.Edge(), Options{})
	if mf.DRAMEnergyPJ >= mu.DRAMEnergyPJ {
		t.Fatalf("fusion must cut DRAM energy: %g >= %g", mf.DRAMEnergyPJ, mu.DRAMEnergyPJ)
	}
}

func TestPrefetchReducesLatency(t *testing.T) {
	// On a bandwidth-starved platform, prefetching weights earlier than
	// the double-buffer default must not hurt and should typically help.
	g := smallNet(t)
	s := parse(t, g, core.DefaultEncoding(g, 4))
	cfg := hw.Edge().WithDRAM(4)
	base := evalOK(t, s, cfg, Options{})
	early := s.Clone()
	for i := range early.Tensors {
		if early.Tensors[i].Kind.IsLoad() {
			early.SetLiving(early.Tensors[i].ID, 0)
		}
	}
	m := evalOK(t, early, cfg, Options{})
	if m.LatencyNS > base.LatencyNS*1.0001 {
		t.Fatalf("maximal prefetch slower: %g > %g", m.LatencyNS, base.LatencyNS)
	}
}

func TestDelayedStoreEffect(t *testing.T) {
	// Relaxing every store deadline to the end of execution removes
	// store-induced compute stalls; latency must not increase.
	g := smallNet(t)
	s := parse(t, g, core.DefaultEncoding(g, 4))
	cfg := hw.Edge().WithDRAM(4)
	base := evalOK(t, s, cfg, Options{})
	lax := s.Clone()
	for i := range lax.Tensors {
		if lax.Tensors[i].Kind == core.StoreOfmap {
			lax.SetLiving(lax.Tensors[i].ID, lax.NumTiles())
		}
	}
	m := evalOK(t, lax, cfg, Options{})
	if m.LatencyNS > base.LatencyNS*1.0001 {
		t.Fatalf("delayed stores slower: %g > %g", m.LatencyNS, base.LatencyNS)
	}
}

func TestDeadlockDetection(t *testing.T) {
	g := smallNet(t)
	s := parse(t, g, core.DefaultEncoding(g, 2))
	// Force an illegal order: put a load that depends on a store before
	// that store by raw manipulation (MoveTensor would refuse).
	var loadPos, storePos = -1, -1
	after := afterStores(s)
	for pos, id := range s.Order {
		ts := &s.Tensors[id]
		if ts.Kind == core.LoadIfmap && len(after[id]) > 0 && loadPos == -1 {
			loadPos = pos
		}
		if ts.Kind == core.StoreOfmap && storePos == -1 {
			storePos = pos
		}
	}
	if loadPos == -1 || storePos == -1 {
		t.Skip("no reload pair in this schedule")
	}
	// Swap the dependent load to the very front.
	s.Order[0], s.Order[loadPos] = s.Order[loadPos], s.Order[0]
	if s.OrderValid() {
		t.Skip("swap did not violate order")
	}
	_, err := Evaluate(s, coresched.New(hw.Edge()), Options{})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want deadlock, got %v", err)
	}
}

func TestBufferBudgetFlag(t *testing.T) {
	g := smallNet(t)
	s := parse(t, g, core.DefaultEncoding(g, 1))
	m := evalOK(t, s, hw.Edge(), Options{BufferBudget: 1})
	if m.BufferOK {
		t.Fatal("1-byte budget reported feasible")
	}
	m = evalOK(t, s, hw.Edge(), Options{})
	if !m.BufferOK {
		t.Fatalf("8MB budget infeasible for a tiny net (peak=%d)", m.PeakBufferBytes)
	}
	if m.Budget != hw.Edge().GBufBytes {
		t.Fatalf("default budget = %d", m.Budget)
	}
}

func TestTraceShapes(t *testing.T) {
	g := smallNet(t)
	s := parse(t, g, core.DefaultEncoding(g, 2))
	m := evalOK(t, s, hw.Edge(), Options{Trace: true})
	if len(m.TileStart) != s.NumTiles() || len(m.TensorStart) != len(s.Tensors) {
		t.Fatalf("trace lengths: %d %d", len(m.TileStart), len(m.TensorStart))
	}
	for i := range m.TileStart {
		if m.TileEnd[i] < m.TileStart[i] {
			t.Fatalf("tile %d ends before start", i)
		}
		if i > 0 && m.TileStart[i] < m.TileEnd[i-1] {
			t.Fatalf("tiles overlap on the serial pipeline: %d", i)
		}
	}
	for i := 1; i < len(s.Order); i++ {
		prev, cur := s.Order[i-1], s.Order[i]
		if m.TensorStart[cur] < m.TensorEnd[prev]-1e-9 {
			t.Fatalf("tensors overlap on the serial channel at order %d", i)
		}
	}
	// Without Trace the slices stay nil.
	m2 := evalOK(t, s, hw.Edge(), Options{})
	if m2.TileStart != nil || m2.TensorStart != nil {
		t.Fatal("trace data leaked without Trace option")
	}
}

func TestLoadRespectsStartSemantics(t *testing.T) {
	// A load with Start=s must not begin before tile s-1 completes.
	g := smallNet(t)
	s := parse(t, g, core.DefaultEncoding(g, 2))
	m := evalOK(t, s, hw.Edge(), Options{Trace: true})
	for _, ts := range s.Tensors {
		if !ts.Kind.IsLoad() || ts.Start == 0 {
			continue
		}
		if m.TensorStart[ts.ID]+1e-9 < m.TileEnd[ts.Start-1] {
			t.Fatalf("tensor %d started %.1f before tile %d finished %.1f",
				ts.ID, m.TensorStart[ts.ID], ts.Start-1, m.TileEnd[ts.Start-1])
		}
	}
	// Every load completes before its first consumer starts.
	for _, ts := range s.Tensors {
		if !ts.Kind.IsLoad() {
			continue
		}
		if m.TileStart[ts.FirstUse]+1e-9 < m.TensorEnd[ts.ID] {
			t.Fatalf("tile %d started before its load %d finished", ts.FirstUse, ts.ID)
		}
	}
	// Every store starts after its producing tile.
	for _, ts := range s.Tensors {
		if ts.Kind != core.StoreOfmap {
			continue
		}
		if m.TensorStart[ts.ID]+1e-9 < m.TileEnd[ts.Producer] {
			t.Fatalf("store %d started before tile %d finished", ts.ID, ts.Producer)
		}
	}
}

func TestStoreEndGatesTile(t *testing.T) {
	g := smallNet(t)
	s := parse(t, g, core.DefaultEncoding(g, 2))
	m := evalOK(t, s, hw.Edge(), Options{Trace: true})
	for _, ts := range s.Tensors {
		if ts.Kind != core.StoreOfmap || ts.End >= s.NumTiles() {
			continue
		}
		if m.TileStart[ts.End]+1e-9 < m.TensorEnd[ts.ID] {
			t.Fatalf("tile %d started before store %d (End=%d) finished",
				ts.End, ts.ID, ts.End)
		}
	}
}

func TestCostObjective(t *testing.T) {
	m := &Metrics{EnergyPJ: 10, LatencyNS: 3}
	if m.Cost(1, 1) != 30 {
		t.Fatalf("Cost(1,1) = %g", m.Cost(1, 1))
	}
	if m.Cost(0, 1) != 3 {
		t.Fatalf("Cost(0,1) = %g", m.Cost(0, 1))
	}
	if m.Cost(2, 1) != 300 {
		t.Fatalf("Cost(2,1) = %g", m.Cost(2, 1))
	}
}

func TestResNetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full model in -short mode")
	}
	g := models.ResNet50(1)
	s := parse(t, g, core.DefaultEncoding(g, 4))
	m := evalOK(t, s, hw.Edge(), Options{})
	if m.LatencyNS <= 0 {
		t.Fatal("resnet latency must be positive")
	}
	// Unfused ResNet-50 at batch 1 moves >= weights + input + output.
	if m.TotalDRAMBytes < g.TotalWeightBytes() {
		t.Fatalf("DRAM bytes %d below weight bytes %d", m.TotalDRAMBytes, g.TotalWeightBytes())
	}
	// Sanity: latency in a plausible window (0.1ms - 1s) for 16 TOPS.
	if m.LatencyNS < 1e5 || m.LatencyNS > 1e9 {
		t.Fatalf("resnet latency = %g ns, implausible", m.LatencyNS)
	}
}

func TestGPT2DecodeUtilizationTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("full model in -short mode")
	}
	g := models.GPT2Decode(models.GPT2Small(), 1)
	s := parse(t, g, core.DefaultEncoding(g, 1))
	m := evalOK(t, s, hw.Edge(), Options{})
	// Paper observation: decode utilization is a fraction of a percent at
	// batch 1 on a 16 TOPS edge device.
	if m.Utilization > 0.05 {
		t.Fatalf("decode utilization %.4f too high for bandwidth-bound phase", m.Utilization)
	}
	if m.DRAMUtilization < 0.5 {
		t.Fatalf("decode should saturate DRAM, got %.3f", m.DRAMUtilization)
	}
}
