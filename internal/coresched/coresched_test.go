package coresched

import (
	"testing"
	"testing/quick"

	"soma/internal/graph"
	"soma/internal/hw"
)

// convReq builds a well-formed conv tile request.
func convReq(outElems int64, outC, inC int) Request {
	macs := outElems * int64(outC) * int64(inC) * 9
	return Request{
		Kind:        graph.Conv,
		OutElems:    outElems,
		OutC:        outC,
		InC:         inC,
		KH:          3,
		KW:          3,
		InBytes:     outElems * int64(inC), // ~same spatial extent
		OutBytes:    outElems * int64(outC),
		WeightBytes: int64(inC) * int64(outC) * 9,
		Ops:         2 * macs,
		ElemBytes:   1,
	}
}

func TestEvaluatePositiveAndConsistent(t *testing.T) {
	s := New(hw.Edge())
	r := s.Evaluate(convReq(56*56, 64, 64))
	if r.TimeNS <= 0 || r.EnergyPJ <= 0 {
		t.Fatalf("non-positive cost: %+v", r)
	}
	sum := r.ComputePJ + r.GBufPJ + r.L0PJ
	if diff := r.EnergyPJ - sum; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("energy breakdown %g != total %g", sum, r.EnergyPJ)
	}
	if r.SpatialCut*r.ChannelCut != hw.Edge().Cores {
		t.Fatalf("partition %dx%d does not use all cores", r.SpatialCut, r.ChannelCut)
	}
}

func TestMemoisation(t *testing.T) {
	s := New(hw.Edge())
	req := convReq(28*28, 128, 128)
	entries := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.cache)
	}
	a := s.Evaluate(req)
	if n := entries(); n != 1 {
		t.Fatalf("cache size after first call = %d", n)
	}
	b := s.Evaluate(req)
	if n := entries(); n != 1 {
		t.Fatalf("cache size after repeat call = %d", n)
	}
	if a != b {
		t.Fatal("memoised result differs")
	}
}

func TestTimeLowerBoundedByPeak(t *testing.T) {
	// No mapping can beat the peak arithmetic rate.
	cfg := hw.Edge()
	s := New(cfg)
	req := convReq(112*112, 256, 256)
	r := s.Evaluate(req)
	ideal := float64(req.Ops) / cfg.PeakOpsPerNS()
	if r.TimeNS < ideal {
		t.Fatalf("time %.1f ns beats the %.1f ns peak bound", r.TimeNS, ideal)
	}
}

func TestBigChannelsNearPeak(t *testing.T) {
	// A large, well-aligned conv should run close to peak (pad penalties
	// vanish when channels are multiples of the array dims).
	cfg := hw.Edge()
	s := New(cfg)
	req := convReq(64*64, 256, 256)
	r := s.Evaluate(req)
	ideal := float64(req.Ops) / cfg.PeakOpsPerNS()
	if r.TimeNS > 2.1*ideal {
		t.Fatalf("aligned conv at %.2fx ideal, want <= 2.1x", r.TimeNS/ideal)
	}
}

func TestSmallChannelsUnderutilize(t *testing.T) {
	cfg := hw.Edge()
	s := New(cfg)
	small := s.Evaluate(convReq(56*56, 8, 3)) // stem-like: tiny channels
	ideal := float64(convReq(56*56, 8, 3).Ops) / cfg.PeakOpsPerNS()
	if small.TimeNS < 3*ideal {
		t.Fatalf("tiny channels should underutilize: %.2fx ideal", small.TimeNS/ideal)
	}
}

func TestCoarserTilesAmortizeOverhead(t *testing.T) {
	// Evaluating a layer as 1 big tile must cost less time than the sum
	// of 16 small tiles (fixed overhead + reuse losses).
	s := New(hw.Edge())
	big := s.Evaluate(convReq(56*56, 128, 128))
	small := s.Evaluate(convReq(56*56/16, 128, 128))
	if 16*small.TimeNS <= big.TimeNS {
		t.Fatalf("fine tiling should cost more: 16x%.0f vs %.0f", small.TimeNS, big.TimeNS)
	}
	if 16*small.EnergyPJ < big.EnergyPJ {
		t.Fatalf("fine tiling should not save energy: 16x%.0f vs %.0f", small.EnergyPJ, big.EnergyPJ)
	}
}

func TestVectorKindUsesVectorModel(t *testing.T) {
	s := New(hw.Edge())
	r := s.Evaluate(Request{
		Kind: graph.Eltwise, OutElems: 56 * 56, OutC: 64,
		InBytes: 2 * 56 * 56 * 64, OutBytes: 56 * 56 * 64,
		Ops: 56 * 56 * 64, ElemBytes: 1,
	})
	if r.TimeNS <= 0 || r.EnergyPJ <= 0 {
		t.Fatalf("vector cost: %+v", r)
	}
	// Element-wise layers are GBUF-bound, never MAC-bound.
	if r.ComputePJ > r.GBufPJ {
		t.Fatalf("eltwise should be traffic-dominated: %+v", r)
	}
}

func TestDepthwiseDoesNotExplode(t *testing.T) {
	// DWConv has InC=1 per output channel; the special case must keep the
	// penalty bounded rather than padding 1 -> ArrayRows.
	cfg := hw.Edge()
	s := New(cfg)
	req := Request{
		Kind: graph.DWConv, OutElems: 56 * 56, OutC: 64, InC: 1,
		KH: 3, KW: 3,
		InBytes: 58 * 58 * 64, OutBytes: 56 * 56 * 64, WeightBytes: 64 * 9,
		Ops: 2 * 56 * 56 * 64 * 9, ElemBytes: 1,
	}
	r := s.Evaluate(req)
	ideal := float64(req.Ops) / cfg.PeakOpsPerNS()
	if r.TimeNS > 40*ideal {
		t.Fatalf("depthwise penalty too harsh: %.1fx ideal", r.TimeNS/ideal)
	}
}

func TestMoreBandwidthNeverSlower(t *testing.T) {
	base := hw.Edge()
	fast := hw.Edge()
	fast.GBufBandwidth *= 4
	req := convReq(14*14, 512, 512)
	a := New(base).Evaluate(req)
	b := New(fast).Evaluate(req)
	if b.TimeNS > a.TimeNS {
		t.Fatalf("more GBUF bandwidth made the tile slower: %g > %g", b.TimeNS, a.TimeNS)
	}
}

func TestFactorPairs(t *testing.T) {
	got := factorPairs(8)
	want := [][2]int{{1, 8}, {2, 4}, {4, 2}, {8, 1}}
	if len(got) != len(want) {
		t.Fatalf("factorPairs(8) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("factorPairs(8) = %v", got)
		}
	}
}

func TestPadHelpers(t *testing.T) {
	if pad(32, 32) != 1 || pad(33, 32) >= 2 || pad(1, 32) != 32 {
		t.Fatalf("pad: %g %g %g", pad(32, 32), pad(33, 32), pad(1, 32))
	}
	if pad(0, 32) != 1 || pad64(0, 4) != 1 {
		t.Fatal("pad of zero must be neutral")
	}
	if pad64(10, 4) != 1.2 {
		t.Fatalf("pad64(10,4) = %g", pad64(10, 4))
	}
}

func TestEvaluatePropertyMonotoneInOps(t *testing.T) {
	s := New(hw.Edge())
	f := func(scaleRaw uint8) bool {
		scale := int64(scaleRaw%7) + 1
		small := s.Evaluate(convReq(28*28, 64, 64))
		big := s.Evaluate(convReq(28*28*scale, 64, 64))
		return big.TimeNS >= small.TimeNS && big.EnergyPJ >= small.EnergyPJ
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
