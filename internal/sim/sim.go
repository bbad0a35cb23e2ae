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
// stage 2 evaluates Living Duration moves that deadlock and never prints
// one.
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

// Evaluate replays the schedule on the scheduler's hardware configuration:
// one run of the merge from event zero, recording start times only under
// Options.Trace.
func Evaluate(s *core.Schedule, cs *coresched.Scheduler, opt Options) (*Metrics, error) {
	var r replay
	if err := r.init(s, cs, opt); err != nil {
		return nil, err
	}
	if opt.Trace {
		r.tileStart, r.tensorStart = make([]float64, r.n), make([]float64, r.m)
	}
	end, _, err := r.run(mergeState{}, nil, nil)
	if err != nil {
		return &Metrics{}, err
	}
	m := r.metrics(s.BufferUsage(), end)
	if opt.Trace {
		m.TileStart, m.TileEnd = r.tileStart, r.tileEnd
		m.TensorStart, m.TensorEnd = r.tensorStart, r.tensorEnd
	}
	return m, nil
}

// replay is the merge of the two serial resources over a schedule: the DRAM
// channel executes the tensors in DRAM Tensor Order, the compute pipeline the
// tiles in seq order. Evaluate runs it once from event zero; Incremental
// keeps one for its live schedule and resumes it from checkpoints of the
// accepted run.
//
// The channel commits the tensors in order, so a tensor has committed iff
// its order position is below the order cursor. A load waits for its
// producer's stores (Schedule.WaitsOn) without scanning them: every store
// ordered before the load has committed when the load is reached and ends
// no later than the channel frees up, so those stores never delay the
// load's start. What is left is the stall of a load whose producer layer
// still has a store ordered after it - an invalid order that deadlocks.
// Since a reload waits on every store of its Source layer, that is one
// check of the layer's last store.
//
// The merge gets stuck in exactly two ways: at such a reload, or at a
// transfer U ordered at or before a transfer V that gates a tile U waits
// for (0 <= V.Gate <= U.Wait), since U waits for that tile, the tile for V
// and V, behind U in the order, for U. core.Schedule.OrderValid states both
// rules, and MoveTensor refuses any order move that would break one, so
// stage 2's order moves never reach a deadlocked run; Living Duration
// moves still can, and the run reports where it got stuck.
type replay struct {
	s    *core.Schedule
	cfg  hw.Config
	opt  Options
	tc   *TileCosts
	n, m int // tiles, tensors

	// gates[i] lists the IDs of the tensors gating tile seq i
	// (core.Tensor.Gate). pos is each tensor's order position, and
	// lastStore, per layer, the ID of its store that comes last in the
	// order (-1 without stores).
	gates     [][]int
	pos       []int
	lastStore []int

	// The completion times a run writes. Start times are recorded only
	// when non-nil.
	tileEnd, tensorEnd     []float64
	tileStart, tensorStart []float64

	// The accepted run a resumed run continues (Incremental only): the
	// tiles and tensors before the resume point read their times here.
	accTileEnd, accTensorEnd []float64
}

// mergeState is the scalar state of a merge between events: the tile and
// order cursors, both resources' frontiers and the DRAM occupancy so far.
type mergeState struct {
	i, j                  int
	computeFree, dramFree float64
	dramBusy              float64
	dramBytes             int64
}

// init checks s against opt, precomputes its tile costs when opt has none,
// and builds the gate rows, the order positions, the last stores and the
// run arrays.
func (r *replay) init(s *core.Schedule, cs *coresched.Scheduler, opt Options) error {
	n, m := s.NumTiles(), len(s.Tensors)
	if len(s.Order) != m {
		return fmt.Errorf("sim: order length %d != tensors %d", len(s.Order), m)
	}
	tc := opt.TileCosts
	if tc == nil {
		tc = PrecomputeTileCosts(s, cs)
	} else if len(tc.Dur) != n {
		return fmt.Errorf("sim: tile-cost cache covers %d tiles, schedule has %d", len(tc.Dur), n)
	}
	pos, lastStore := make([]int, m), make([]int, len(s.G.Layers))
	for l := range lastStore {
		lastStore[l] = -1
	}
	for p, id := range s.Order {
		pos[id] = p
		if t := &s.Tensors[id]; !t.Kind.IsLoad() {
			lastStore[t.Layer] = id
		}
	}
	*r = replay{s: s, cfg: cs.Config(), opt: opt, tc: tc, n: n, m: m,
		gates: gateRows(s, n), pos: pos, lastStore: lastStore,
		tileEnd: make([]float64, n), tensorEnd: make([]float64, m)}
	return nil
}

// gateRows maps each of the n tile seqs to the IDs of the tensors gating it
// (core.Tensor.Gate), in ID order. The rows share one array, and each
// row's capacity ends with it, so appending to a row never overwrites the
// next one.
func gateRows(s *core.Schedule, n int) [][]int {
	// Count row g's gates into off[g+2]. After the prefix sum off[g+1] is
	// where row g starts, and the fill advances it to where the row ends:
	// row g+1's start.
	off := make([]int, n+2)
	for i := range s.Tensors {
		if g := s.Tensors[i].Gate(n); g >= 0 {
			off[g+2]++
		}
	}
	for k := 2; k < len(off); k++ {
		off[k] += off[k-1]
	}
	ids := make([]int, off[n+1])
	for i := range s.Tensors {
		if g := s.Tensors[i].Gate(n); g >= 0 {
			ids[off[g+1]] = i
			off[g+1]++
		}
	}
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = ids[off[i]:off[i+1]:off[i+1]]
	}
	return rows
}

// watch arms a resumed run's early stop for a duration move (Incremental
// only): p is the moved tensor's order position and gate the last tile seq
// whose gating the move changed (-1 for none). The run compares every
// completion time it writes with the accepted run's, and the first
// difference disarms the watch. Once the order cursor has passed p and the
// tile cursor has passed gate with the watch still armed, the rest of the
// merge is the accepted run's: the same schedule from the cursors on,
// reading only times equal to the accepted ones. The merge times do not
// depend on the interleaving, so the rest would repeat the accepted times,
// and since the move kept the DRAM order, the accepted run's DRAM sums too.
// The run stops there and reports that the proposal rejoined.
type watch struct{ p, gate int }

// run merges from state ck to the end of the schedule and returns the final
// state, or the state where neither resource can advance with a deadlock
// error. Tile seqs before ck.i and tensors at order positions before ck.j
// belong to the accepted run; a run from event zero reads only its own
// times. When ckpts is non-nil, the state every ckptStride events is
// appended to it. When w is non-nil, the run may stop early where it
// rejoins the accepted run (see watch); it then returns the state it
// stopped at and true.
func (r *replay) run(ck mergeState, ckpts *[]checkpoint, w *watch) (mergeState, bool, error) {
	s := r.s
	n, m := r.n, r.m
	tileDur := r.tc.Dur
	bw := r.cfg.DRAMBandwidth

	i, j := ck.i, ck.j
	computeFree, dramFree := ck.computeFree, ck.dramFree
	dramBusy, dramBytes := ck.dramBusy, ck.dramBytes
	lastCk := i + j
	live, rejoined, wp, wgate := w != nil, false, 0, 0
	if live {
		wp, wgate = w.p, w.gate
	}

	tensorEnd := func(id int) float64 {
		if r.pos[id] < ck.j {
			return r.accTensorEnd[id]
		}
		return r.tensorEnd[id]
	}
	tileEnd := func(seq int) float64 {
		if seq < ck.i {
			return r.accTileEnd[seq]
		}
		return r.tileEnd[seq]
	}

	for i < n || j < m {
		if live && j > wp && i > wgate {
			rejoined = true
			break
		}
		if ckpts != nil && i+j-lastCk >= ckptStride {
			*ckpts = append(*ckpts, mergeState{
				i: i, j: j, computeFree: computeFree, dramFree: dramFree,
				dramBusy: dramBusy, dramBytes: dramBytes})
			lastCk = i + j
		}
		advanced := false
		// Drain every currently-ready DRAM tensor.
		for j < m {
			t := &s.Tensors[s.Order[j]]
			wait := t.Wait()
			if i <= wait {
				break // the tile it waits for has not finished
			}
			if t.Kind == core.LoadIfmap {
				if st := r.lastStore[t.Source]; st >= 0 && r.pos[st] > j {
					break // a producer store is still ahead in the order
				}
			}
			var depTime float64
			if wait >= 0 {
				depTime = tileEnd(wait)
			}
			start := maxf(dramFree, depTime)
			dur := float64(t.Bytes) / bw
			end := start + dur
			r.tensorEnd[t.ID] = end
			if r.tensorStart != nil {
				r.tensorStart[t.ID] = start
			}
			if live && end != r.accTensorEnd[t.ID] {
				live = false
			}
			dramFree = end
			dramBusy += dur
			dramBytes += t.Bytes
			j++
			advanced = true
		}
		// Commit the next tile if its gating tensors are done.
		if i < n {
			ready := true
			var depTime float64
			for _, id := range r.gates[i] {
				if r.pos[id] >= j {
					ready = false
					break
				}
				if te := tensorEnd(id); te > depTime {
					depTime = te
				}
			}
			if ready {
				start := maxf(computeFree, depTime)
				end := start + tileDur[i]
				r.tileEnd[i] = end
				if r.tileStart != nil {
					r.tileStart[i] = start
				}
				if live && end != r.accTileEnd[i] {
					live = false
				}
				computeFree = end
				i++
				advanced = true
			}
		}
		if !advanced {
			break
		}
	}
	end := mergeState{i: i, j: j, computeFree: computeFree, dramFree: dramFree,
		dramBusy: dramBusy, dramBytes: dramBytes}
	if !rejoined && (i < n || j < m) {
		return end, false, &deadlockError{i, n, j, m}
	}
	return end, rejoined, nil
}

// metrics folds a completed run ending at end, with the schedule's
// buffer-usage profile usage, into the full metric set.
func (r *replay) metrics(usage []int64, end mergeState) *Metrics {
	return finishMetrics(r.cfg, r.s.G, r.opt.BufferBudget, sumUsage(usage, r.tc.Dur),
		r.tc.CoreEnergy, r.tc.ComputeBusy, end.computeFree, end.dramFree, end.dramBusy, end.dramBytes)
}

// usageSum folds a buffer-usage profile seq by seq, in seq order: its peak,
// and its sum weighted by each tile's compute time.
type usageSum struct {
	peak     int64
	weighted float64
}

// add folds the usage u of a tile whose compute time is dur.
func (us *usageSum) add(u int64, dur float64) {
	if u > us.peak {
		us.peak = u
	}
	us.weighted += float64(u) * dur
}

// sumUsage folds the whole profile usage of tiles with compute times
// tileDur.
func sumUsage(usage []int64, tileDur []float64) usageSum {
	var us usageSum
	for seq, u := range usage {
		us.add(u, tileDur[seq])
	}
	return us
}

// finishMetrics folds a completed merge (final resource frontiers, DRAM
// occupancy) and the schedule's folded buffer-usage profile into the full
// metric set. Evaluate, the Incremental evaluator and the Arena feed it
// identical inputs through identical float operations in the same order, so
// their Metrics are bit-for-bit equal - the property the differential tests
// pin down.
func finishMetrics(cfg hw.Config, g *graph.Graph, budget int64, us usageSum,
	coreEnergy, computeBusy, computeFree, dramFree, dramBusy float64,
	dramBytes int64) *Metrics {

	latency := maxf(computeFree, dramFree)
	if budget == 0 {
		budget = cfg.GBufBytes
	}
	peak := us.peak
	avg := 0.0
	if computeBusy > 0 {
		avg = us.weighted / computeBusy
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
