package sim

import (
	"errors"
	"fmt"
	"math"

	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/graph"
	"soma/internal/hw"
)

// ErrDeadlock is returned when neither resource can make progress: the
// encoding's DLSA is semantically invalid (e.g. a reload ordered before its
// producing store).
var ErrDeadlock = errors.New("sim: schedule deadlocks")

// deadlockError is ErrDeadlock with the tile and tensor the merge got stuck
// at, out of n tiles and m tensors. It formats its text only when asked:
// stage 2 proposes deadlocking moves all the time and rarely prints one.
type deadlockError struct{ i, n, j, m int }

func (e *deadlockError) Error() string {
	return fmt.Sprintf("%v: stuck at tile %d/%d, tensor %d/%d", ErrDeadlock, e.i, e.n, e.j, e.m)
}

func (e *deadlockError) Unwrap() error { return ErrDeadlock }

// Options tunes one evaluation.
type Options struct {
	// BufferBudget overrides the hardware GBUF capacity for feasibility
	// (the Buffer Allocator passes reduced stage budgets). Zero means the
	// full configured capacity.
	BufferBudget int64
	// Trace retains per-tile and per-tensor start/end times for the
	// execution-graph renderer.
	Trace bool
	// TileCosts reuses precomputed per-tile costs. The DLSA exploration
	// stage never changes tiles, so it evaluates thousands of candidate
	// schedules against one PrecomputeTileCosts result.
	TileCosts *TileCosts
	// CacheScope namespaces Cache keys. Canonical schedule keys only
	// identify a schedule within one (graph, hardware) context, so
	// callers sharing one Cache across workloads or platforms (the somad
	// daemon) must set a scope that identifies that context; Evaluate
	// itself ignores the field.
	CacheScope string
	// Telemetry, when non-nil, lets an Incremental evaluator count its
	// proposals/resumes/fallbacks/rollbacks into a shared obs registry.
	// Observation only - evaluation results are unaffected. Evaluate
	// ignores the field.
	Telemetry *IncTelemetry
}

// TileCosts caches the compute-side evaluation of a schedule's tiles.
type TileCosts struct {
	Dur         []float64
	CoreEnergy  float64
	ComputeBusy float64
}

// PrecomputeTileCosts evaluates every tile of the schedule once. CoreEnergy
// and ComputeBusy are summed tile by tile in seq order, as the stage-1
// Arena sums them: the float addition order keeps both bit-identical.
func PrecomputeTileCosts(s *core.Schedule, cs *coresched.Scheduler) *TileCosts {
	tc := &TileCosts{Dur: make([]float64, s.NumTiles())}
	for i := range tc.Dur {
		r := cs.Evaluate(s.TileRequest(i))
		tc.Dur[i] = r.TimeNS
		tc.CoreEnergy += r.EnergyPJ
		tc.ComputeBusy += r.TimeNS
	}
	return tc
}

// Metrics is the evaluation result.
type Metrics struct {
	// LatencyNS is the batch completion time (both resources drained).
	LatencyNS float64
	// EnergyPJ = CoreEnergyPJ + DRAMEnergyPJ.
	EnergyPJ     float64
	CoreEnergyPJ float64
	DRAMEnergyPJ float64

	// ComputeBusyNS / DRAMBusyNS are the summed occupancy times.
	ComputeBusyNS float64
	DRAMBusyNS    float64

	TotalDRAMBytes int64

	// PeakBufferBytes / AvgBufferBytes summarize GBUF occupancy
	// (average weighted by tile compute time, per the paper's formula).
	PeakBufferBytes int64
	AvgBufferBytes  float64
	// BufferOK reports peak <= budget.
	BufferOK bool
	Budget   int64

	// Utilization is ops / (peak * latency) - the paper's performance
	// proxy. TheoreticalMaxUtil is the no-stall bound.
	Utilization        float64
	TheoreticalMaxUtil float64
	// DRAMUtilization / ComputeUtilization are busy/latency fractions.
	DRAMUtilization    float64
	ComputeUtilization float64

	// Trace data (only when Options.Trace).
	TileStart, TileEnd     []float64
	TensorStart, TensorEnd []float64
}

// Cost folds the metrics into the paper's optimization objective
// Energy^n x Delay^m.
func (m *Metrics) Cost(n, mm float64) float64 {
	return math.Pow(m.EnergyPJ, n) * math.Pow(m.LatencyNS, mm)
}

// Evaluate replays the schedule on the scheduler's hardware configuration.
//
// A load waits for its producer's stores (Schedule.WaitsOn) without
// scanning them. The DRAM channel is serial and in order, so every store
// ordered before the load has committed when the load is reached, and ends
// no later than dramFree: the stores never delay the load's start. What is
// left is the stall of a load whose producer layer still has a store ordered
// after it - an invalid order that deadlocks. Since a reload waits on every
// store of its Source layer, that is one comparison against the layer's
// last store position.
func Evaluate(s *core.Schedule, cs *coresched.Scheduler, opt Options) (*Metrics, error) {
	cfg := cs.Config()
	n := s.NumTiles()
	mTensors := len(s.Tensors)
	if len(s.Order) != mTensors {
		return nil, fmt.Errorf("sim: order length %d != tensors %d", len(s.Order), mTensors)
	}

	// Per-tile durations and energies through the core-array scheduler
	// (or the caller's precomputed cache).
	tc := opt.TileCosts
	if tc == nil {
		tc = PrecomputeTileCosts(s, cs)
	} else if len(tc.Dur) != n {
		return nil, fmt.Errorf("sim: tile-cost cache covers %d tiles, schedule has %d", len(tc.Dur), n)
	}
	tileDur := tc.Dur
	coreEnergy, computeBusy := tc.CoreEnergy, tc.ComputeBusy

	// Which tensors gate which tile, and where each layer's last store
	// sits in the DRAM Tensor Order.
	var gates blockers
	gates.build(s, n)
	lastStore := make([]int, len(s.G.Layers))
	for l := range lastStore {
		lastStore[l] = -1
	}
	for p, id := range s.Order {
		if t := &s.Tensors[id]; !t.Kind.IsLoad() {
			lastStore[t.Layer] = p
		}
	}

	tileEnd := make([]float64, n)
	tensorEnd := make([]float64, mTensors)
	committed := make([]bool, mTensors)
	var tileStart, tensorStart []float64
	if opt.Trace {
		tileStart = make([]float64, n)
		tensorStart = make([]float64, mTensors)
	}

	var computeFree, dramFree, dramBusy float64
	var dramBytes int64
	i, j := 0, 0
	for i < n || j < mTensors {
		advanced := false
		// Drain every currently-ready DRAM tensor.
		for j < mTensors {
			t := &s.Tensors[s.Order[j]]
			var depTime float64
			if t.Kind.IsLoad() {
				if i < t.Start {
					break // needs more compute progress
				}
				if t.Kind == core.LoadIfmap && lastStore[t.Source] > j {
					break // a producer store is still ahead in the order
				}
				if t.Start > 0 {
					depTime = tileEnd[t.Start-1]
				}
			} else {
				if i <= t.Producer {
					break // producing tile not finished
				}
				depTime = tileEnd[t.Producer]
			}
			start := maxf(dramFree, depTime)
			dur := float64(t.Bytes) / cfg.DRAMBandwidth
			tensorEnd[t.ID] = start + dur
			committed[t.ID] = true
			if opt.Trace {
				tensorStart[t.ID] = start
			}
			dramFree = start + dur
			dramBusy += dur
			dramBytes += t.Bytes
			j++
			advanced = true
		}
		// Commit the next tile if its gating tensors are done.
		if i < n {
			ready := true
			var depTime float64
			for _, tid := range gates.row(i) {
				if !committed[tid] {
					ready = false
					break
				}
				if tensorEnd[tid] > depTime {
					depTime = tensorEnd[tid]
				}
			}
			if ready {
				start := maxf(computeFree, depTime)
				tileEnd[i] = start + tileDur[i]
				if opt.Trace {
					tileStart[i] = start
				}
				computeFree = tileEnd[i]
				i++
				advanced = true
			}
		}
		if !advanced {
			return &Metrics{}, &deadlockError{i, n, j, mTensors}
		}
	}

	m := finishMetrics(cfg, s.G, opt.BufferBudget, s.BufferUsage(), tileDur,
		coreEnergy, computeBusy, computeFree, dramFree, dramBusy, dramBytes)
	if opt.Trace {
		m.TileStart, m.TileEnd = tileStart, tileEnd
		m.TensorStart, m.TensorEnd = tensorStart, tensorEnd
	}
	return m, nil
}

// resize returns s with length n, reusing its storage when it is large
// enough. Reused elements keep their old values.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// blockers maps each tile seq to the tensor IDs gating it, flat: tile i
// waits for ids[off[i]:off[i+1]], in ID order. Loads gate their first
// consuming tile, stores the tile at their Living Duration end (none when
// that is the end of the execution). Rows run over seqs 0..n, the last one
// empty, so a store's End may move to any seq.
type blockers struct{ off, ids []int }

// build fills b for s's tensors, reusing b's storage.
func (b *blockers) build(s *core.Schedule, n int) {
	gate := func(t *core.Tensor) int {
		switch {
		case t.Kind.IsLoad():
			return t.FirstUse
		case t.End < n:
			return t.End
		}
		return -1
	}
	// Count row g's gates into off[g+2]. After the prefix sum off[g+1] is
	// where row g starts, and the fill advances it to where the row ends:
	// row g+1's start.
	off := resize(b.off, n+2)
	clear(off)
	for i := range s.Tensors {
		if g := gate(&s.Tensors[i]); g >= 0 {
			off[g+2]++
		}
	}
	for k := 2; k < len(off); k++ {
		off[k] += off[k-1]
	}
	ids := resize(b.ids, off[n+1])
	for i := range s.Tensors {
		if g := gate(&s.Tensors[i]); g >= 0 {
			ids[off[g+1]] = i
			off[g+1]++
		}
	}
	b.off, b.ids = off, ids
}

// row returns tile seq i's gating tensors. Its capacity ends with the row,
// so appending to it never overwrites the next one.
func (b *blockers) row(i int) []int { return b.ids[b.off[i]:b.off[i+1]:b.off[i+1]] }

// finishMetrics folds a completed merge (final resource frontiers, DRAM
// occupancy) and the schedule's buffer-usage profile into the full metric
// set. Both Evaluate and the Incremental evaluator feed it identical inputs
// through identical float operations in the same order, so their Metrics are
// bit-for-bit equal - the property the differential tests pin down.
func finishMetrics(cfg hw.Config, g *graph.Graph, budget int64, usage []int64,
	tileDur []float64, coreEnergy, computeBusy, computeFree, dramFree, dramBusy float64,
	dramBytes int64) *Metrics {

	latency := maxf(computeFree, dramFree)
	if budget == 0 {
		budget = cfg.GBufBytes
	}
	var peak int64
	var weighted float64
	for seq, u := range usage {
		if u > peak {
			peak = u
		}
		weighted += float64(u) * tileDur[seq]
	}
	avg := 0.0
	if computeBusy > 0 {
		avg = weighted / computeBusy
	}

	en := cfg.Energy
	dramEnergy := float64(dramBytes) * (en.DRAMPerByte + en.GBufPerByte)
	total := coreEnergy + dramEnergy + en.StaticPerNS*latency

	ops := float64(g.TotalOps())
	peakRate := cfg.PeakOpsPerNS()
	theoLat := maxf(computeBusy, dramBusy)

	return &Metrics{
		LatencyNS:          latency,
		EnergyPJ:           total,
		CoreEnergyPJ:       coreEnergy,
		DRAMEnergyPJ:       dramEnergy,
		ComputeBusyNS:      computeBusy,
		DRAMBusyNS:         dramBusy,
		TotalDRAMBytes:     dramBytes,
		PeakBufferBytes:    peak,
		AvgBufferBytes:     avg,
		BufferOK:           peak <= budget,
		Budget:             budget,
		Utilization:        ops / (peakRate * latency),
		TheoreticalMaxUtil: ops / (peakRate * theoLat),
		DRAMUtilization:    dramBusy / latency,
		ComputeUtilization: computeBusy / latency,
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
