// Package coresched is the classic intra-tile Core Array Scheduler and
// Evaluator the paper adopts from the single-layer dataflow literature
// (Timeloop/MAESTRO-style analytical modelling, Sec. V-D): given one
// computing tile whose ifmaps and weights already sit in the GBUF, it
// searches how to partition the tile across the cores, chooses a
// weight-stationary or input-stationary L0 dataflow per candidate, and
// returns the tile's compute time and energy including GBUF<->L0 traffic.
//
// The model captures the effects the paper's first stage exploits: coarser
// tiles amortize the fixed per-tile overhead, expose more L0 reuse (fewer
// GBUF passes) and map better onto the KC-parallel PE array, so the LFA
// search sees a genuine cost gradient over the Tiling Number.
package coresched

import (
	"math"
	"sync"

	"soma/internal/graph"
	"soma/internal/hw"
)

// Request describes one computing tile. It is the cache key, so it contains
// only value types.
type Request struct {
	Kind graph.Kind
	// OutElems is the tile's output batch x height x width element count
	// (channel excluded).
	OutElems int64
	// OutC / InC are the produced / contracted channel widths.
	OutC, InC int
	// KH/KW is the spatial window (1 for GEMM-like kinds).
	KH, KW int
	// InBytes / OutBytes / WeightBytes are the GBUF-resident operand
	// footprints the tile must stream through the cores.
	InBytes, OutBytes, WeightBytes int64
	// Ops is the tile's total arithmetic work (MAC = 2 ops).
	Ops int64
	// ElemBytes is the element width.
	ElemBytes int
}

// Result is the evaluated cost of one tile.
type Result struct {
	// TimeNS is the tile's occupancy of the compute pipeline.
	TimeNS float64
	// EnergyPJ is the total tile energy; the breakdown fields sum to it.
	EnergyPJ  float64
	ComputePJ float64
	GBufPJ    float64
	L0PJ      float64
	// GBufBytes is the GBUF traffic the chosen mapping generates.
	GBufBytes int64
	// SpatialCut / ChannelCut is the chosen core partition.
	SpatialCut, ChannelCut int
}

// Scheduler evaluates tiles against one hardware configuration, memoising
// results (tiles of the same layer share shapes, so hit rates are high).
type Scheduler struct {
	cfg hw.Config
	// parts holds the (spatial x channel) core partitions of cfg.Cores,
	// enumerated once: evalPEArray runs on every tile-cost cache miss and
	// the candidate set depends only on the core count.
	parts [][2]int

	mu    sync.Mutex
	cache map[Request]Result
}

// New creates a scheduler for the given hardware.
func New(cfg hw.Config) *Scheduler {
	return &Scheduler{cfg: cfg, parts: factorPairs(cfg.Cores), cache: make(map[Request]Result)}
}

// Config returns the hardware this scheduler models.
func (s *Scheduler) Config() hw.Config { return s.cfg }

// Evaluate returns the cost of one tile, searching core partitions for
// PE-array kinds and using the vector-unit model otherwise.
func (s *Scheduler) Evaluate(r Request) Result {
	s.mu.Lock()
	if res, ok := s.cache[r]; ok {
		s.mu.Unlock()
		return res
	}
	s.mu.Unlock()

	var res Result
	if r.Kind.OnPEArray() {
		res = s.evalPEArray(r)
	} else {
		res = s.evalVector(r)
	}
	res.EnergyPJ = res.ComputePJ + res.GBufPJ + res.L0PJ

	s.mu.Lock()
	s.cache[r] = res
	s.mu.Unlock()
	return res
}

// evalPEArray searches (spatial x channel) core partitions.
func (s *Scheduler) evalPEArray(r Request) Result {
	best := Result{TimeNS: math.Inf(1)}
	for _, part := range s.parts {
		cand := s.evalPartition(r, part[0], part[1])
		if cand.TimeNS < best.TimeNS ||
			(cand.TimeNS == best.TimeNS && cand.energy() < best.energy()) {
			best = cand
		}
	}
	return best
}

func (r Result) energy() float64 { return r.ComputePJ + r.GBufPJ + r.L0PJ }

// evalPartition costs one (spatial=pS, outputChannel=pC) core split.
func (s *Scheduler) evalPartition(r Request, pS, pC int) Result {
	cfg := &s.cfg
	macs := float64(r.Ops) / 2

	// Mapping-efficiency penalties of the KC-parallel PE array: padding
	// the contracted channels to ArrayRows, the per-core output channels
	// to ArrayCols, and the spatial extent to the spatial cut.
	subC := ceilDiv(r.OutC, pC)
	penC := pad(r.InC, cfg.ArrayRows)
	penK := pad(subC, cfg.ArrayCols)
	penS := pad64(r.OutElems, int64(pS))
	if r.Kind == graph.DWConv {
		// Depthwise convs do not contract channels; they unroll the
		// window and spatial extent instead, at reduced efficiency.
		penC, penK = 2, 1
	}
	cycles := macs * penC * penK * penS / float64(pS*pC*cfg.MACsPerCore())

	// GBUF traffic: spatial cuts replicate weight reads, channel cuts
	// replicate ifmap reads; the L0 dataflow decides which operand is
	// re-streamed when it overflows its L0 slice.
	wPerCore := float64(r.WeightBytes) / float64(pC)
	iPerCore := float64(r.InBytes) / float64(pS)
	l0 := float64(cfg.L0Bytes)
	wPasses := math.Ceil(wPerCore / l0) // input-stationary weight refetches
	iPasses := math.Ceil(iPerCore / l0) // weight-stationary ifmap refetches
	cores := float64(pS * pC)
	wsTraffic := cores * (wPerCore + iPerCore*wPasses)
	isTraffic := cores * (iPerCore + wPerCore*iPasses)
	gbuf := math.Min(wsTraffic, isTraffic) + float64(r.OutBytes)

	timeCompute := cfg.CyclesToNS(cycles + float64(cfg.TileOverheadCycles))
	timeGBuf := gbuf / cfg.GBufBandwidth
	en := cfg.Energy

	return Result{
		TimeNS:     math.Max(timeCompute, timeGBuf),
		ComputePJ:  float64(r.Ops) * en.MACOp / 2,
		GBufPJ:     gbuf * en.GBufPerByte,
		L0PJ:       (gbuf + 2*float64(r.OutBytes)) * en.L0PerByte,
		GBufBytes:  int64(gbuf),
		SpatialCut: pS, ChannelCut: pC,
	}
}

// evalVector costs element-wise kinds on the vector units.
func (s *Scheduler) evalVector(r Request) Result {
	cfg := &s.cfg
	gbuf := float64(r.InBytes + r.OutBytes)
	cycles := float64(r.Ops)/float64(cfg.Cores*cfg.VecLanesPerCore) +
		float64(cfg.TileOverheadCycles)
	en := cfg.Energy
	return Result{
		TimeNS:     math.Max(cfg.CyclesToNS(cycles), gbuf/cfg.GBufBandwidth),
		ComputePJ:  float64(r.Ops) * en.VecOp,
		GBufPJ:     gbuf * en.GBufPerByte,
		L0PJ:       gbuf * en.L0PerByte,
		GBufBytes:  int64(gbuf),
		SpatialCut: cfg.Cores, ChannelCut: 1,
	}
}

// pad returns the ceil-quantization penalty of mapping n onto lanes of width
// q: padded/n >= 1.
func pad(n, q int) float64 {
	if n <= 0 {
		return 1
	}
	return float64(ceilDiv(n, q)*q) / float64(n)
}

func pad64(n int64, q int64) float64 {
	if n <= 0 {
		return 1
	}
	p := (n + q - 1) / q * q
	return float64(p) / float64(n)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// factorPairs enumerates (a,b) with a*b == n (core partition candidates).
func factorPairs(n int) [][2]int {
	var out [][2]int
	for a := 1; a <= n; a++ {
		if n%a == 0 {
			out = append(out, [2]int{a, n / a})
		}
	}
	return out
}
