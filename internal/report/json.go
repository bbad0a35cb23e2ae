package report

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"

	"soma/internal/cocco"
	"soma/internal/core"
	"soma/internal/graph"
	"soma/internal/hw"
	"soma/internal/obs"
	"soma/internal/sim"
	"soma/internal/soma"
)

// Result is the machine-readable schedule payload shared by `soma -json` and
// the somad HTTP API (docs/api.md). Both render this exact struct through
// encoding/json, so a fixed-seed run returns byte-identical cost and encoding
// over either path - scripts never need to scrape the human tables.
type Result struct {
	Workload  Workload  `json:"workload"`
	Hardware  Hardware  `json:"hardware"`
	Objective Objective `json:"objective"`
	// Framework is the scheduler that produced the result: soma|cocco.
	Framework string `json:"framework"`
	Seed      int64  `json:"seed"`
	// Cost is the objective value Energy^n x Delay^m of the winner.
	Cost float64 `json:"cost"`
	// EncodingKey is the winning LFA's canonical key
	// (core.Encoding.CanonicalKey), hex-encoded; EncodingSHA256 /
	// ScheduleSHA256 digest the canonical encoding and full-schedule keys
	// so byte-identity across runs is a string compare.
	EncodingKey    string `json:"encoding_key"`
	EncodingSHA256 string `json:"encoding_sha256"`
	ScheduleSHA256 string `json:"schedule_sha256"`

	Metrics  Metrics  `json:"metrics"`
	Schedule Schedule `json:"schedule"`
	// Search carries SoMa-specific search statistics (absent for cocco).
	Search *Search `json:"search,omitempty"`
	// Scenario carries multi-model composition results (absent for
	// single-model runs): per-component ownership, isolated per-model
	// results, and the composed-vs-isolated aggregate comparison.
	Scenario *ScenarioInfo `json:"scenario,omitempty"`
	// Telemetry carries wall-clock measurements, present only when the run
	// had observability enabled (engine Request.Obs). Wall times are
	// nondeterministic, so keeping the section out of plain runs preserves
	// byte-identical fixed-seed payloads; consumers comparing results
	// across runs should ignore it.
	Telemetry *Telemetry `json:"telemetry,omitempty"`
	// Convergence carries the journaled annealing trajectory and derived
	// search diagnostics, present only when the run attached a convergence
	// journal (engine Request.Journal). Unlike Telemetry it contains no
	// wall clock, so for serial runs the section itself is deterministic
	// for a fixed seed; it stays opt-in to keep plain payloads small and
	// byte-identical with journaling off.
	Convergence *obs.ConvergenceReport `json:"convergence,omitempty"`

	// Raw carries the in-memory artifacts behind the payload for callers
	// that need more than JSON - trace rendering, ISA lowering, the exp
	// figure adapters. Never serialized, so its presence cannot perturb
	// byte-identity of the wire payload.
	Raw *Raw `json:"-"`
}

// Raw is the non-serialized artifact section of a Result.
type Raw struct {
	Graph    *graph.Graph
	Encoding *core.Encoding
	Schedule *core.Schedule
	Metrics  *sim.Metrics
	// Stage1Metrics is the double-buffer DLSA result of the winning LFA
	// (soma runs only; nil for cocco).
	Stage1Metrics *sim.Metrics
	// Stage1WallNS/Stage2WallNS are per-stage wall times (soma runs only).
	// They live here rather than in the serialized payload because wall
	// time is nondeterministic; engine.Run folds them into
	// Result.Telemetry when observability is on.
	Stage1WallNS, Stage2WallNS int64
}

// Telemetry is the observability section of a Result: wall-clock spend per
// solve and per stage. Populated by engine.Run only when the request
// carries an obs bundle.
type Telemetry struct {
	// SolveWallMS is the whole solve's wall time as seen by the engine.
	SolveWallMS float64 `json:"solve_wall_ms"`
	// Stage1WallMS/Stage2WallMS split the soma exploration's annealing
	// time across the allocator loop (zero for cocco).
	Stage1WallMS float64 `json:"stage1_wall_ms,omitempty"`
	Stage2WallMS float64 `json:"stage2_wall_ms,omitempty"`
}

// ScenarioInfo is the scenario section of a composed run's payload.
type ScenarioInfo struct {
	Name string `json:"name"`
	// Arrival is the composition mode: interleaved, sequential or
	// prefill+decode.
	Arrival string `json:"arrival"`
	// Components lists the composed models in composition order.
	Components []ScenarioComponent `json:"components"`
	// IsolatedSumLatencyNS sums the isolated per-model latencies: the
	// serial back-to-back execution bound the composed schedule is
	// measured against.
	IsolatedSumLatencyNS float64 `json:"isolated_sum_latency_ns"`
	// IsolatedSumEnergyPJ sums the isolated per-model energies.
	IsolatedSumEnergyPJ float64 `json:"isolated_sum_energy_pj"`
	// ComposedSpeedup is IsolatedSumLatencyNS over the composed latency.
	ComposedSpeedup float64 `json:"composed_speedup"`
	// WeightedIsolatedCost is the priority-weighted geometric mean of the
	// isolated per-model objective costs (weights normalized to sum 1) -
	// the scenario's reference objective value.
	WeightedIsolatedCost float64 `json:"weighted_isolated_cost"`
}

// ScenarioComponent is one composed model instance with its ownership
// snapshot and isolated result.
type ScenarioComponent struct {
	Name   string  `json:"name"`
	Model  string  `json:"model"`
	Batch  int     `json:"batch"`
	Weight float64 `json:"weight"`
	// Layers / Ops / WeightBytes snapshot the component's layer ownership
	// in the composed graph (workload.Placement).
	Layers      int   `json:"layers"`
	Ops         int64 `json:"ops"`
	WeightBytes int64 `json:"weight_bytes"`
	// Isolated is the component's stand-alone scheduling result on the
	// same platform and parameters.
	Isolated *Result `json:"isolated"`
}

// Workload identifies the scheduled model instance.
type Workload struct {
	Model string `json:"model"`
	Batch int    `json:"batch"`
}

// Hardware identifies the platform the schedule was evaluated on.
type Hardware struct {
	Name string `json:"name"`
	// Description is hw.Config.String(): cores, TOPS, GBUF, DRAM.
	Description string `json:"description"`
	GBufBytes   int64  `json:"gbuf_bytes"`
	// DRAMBandwidth is bytes per nanosecond (== GB/s).
	DRAMBandwidth float64 `json:"dram_gbps"`
}

// Objective is the optimization goal Energy^N x Delay^M.
type Objective struct {
	N float64 `json:"n"`
	M float64 `json:"m"`
}

// Metrics mirrors sim.Metrics in explicit units.
type Metrics struct {
	LatencyNS          float64 `json:"latency_ns"`
	EnergyPJ           float64 `json:"energy_pj"`
	CoreEnergyPJ       float64 `json:"core_energy_pj"`
	DRAMEnergyPJ       float64 `json:"dram_energy_pj"`
	Utilization        float64 `json:"utilization"`
	TheoreticalMaxUtil float64 `json:"theoretical_max_util"`
	DRAMUtilization    float64 `json:"dram_utilization"`
	TotalDRAMBytes     int64   `json:"total_dram_bytes"`
	PeakBufferBytes    int64   `json:"peak_buffer_bytes"`
	AvgBufferBytes     float64 `json:"avg_buffer_bytes"`
}

// Schedule summarizes the fusion structure (core.Stats).
type Schedule struct {
	LGs     int `json:"lgs"`
	FLGs    int `json:"flgs"`
	Tiles   int `json:"tiles"`
	Tensors int `json:"dram_tensors"`
}

// Search reports how the SoMa two-stage exploration behaved.
type Search struct {
	AllocIters       int     `json:"alloc_iters"`
	Stage1Budget     int64   `json:"stage1_budget_bytes"`
	Stage1Cost       float64 `json:"stage1_cost"`
	Stage2Cost       float64 `json:"stage2_cost"`
	Chains           int     `json:"chains"`
	Workers          int     `json:"workers"`
	BestChain        int     `json:"best_chain"`
	CacheHits        int64   `json:"cache_hits"`
	CacheMisses      int64   `json:"cache_misses"`
	CacheEntries     int     `json:"cache_entries"`
	CacheGenerations int64   `json:"cache_generations"`
	// CacheHits, CacheMisses and CacheGenerations count this run's own
	// cache traffic; CacheEntries is the cache's size when the run ended.
	// On a private cache all four are deterministic for a fixed seed. On a
	// shared cache (a warm somad, a sweep) they depend on what earlier or
	// concurrent runs left in it.
	//
	// CacheHitRate is CacheHits / (CacheHits + CacheMisses), precomputed
	// so -json consumers need not derive it (0 when the cache was unused).
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// Spec names one run for the payload header; the service fills it from the
// job request, the CLI from its flags.
type Spec struct {
	Model     string
	Batch     int
	HW        string
	Framework string
	Seed      int64
	Obj       Objective
}

func sha(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:])
}

func jsonMetrics(m *sim.Metrics) Metrics {
	if m == nil {
		return Metrics{}
	}
	return Metrics{
		LatencyNS:          m.LatencyNS,
		EnergyPJ:           m.EnergyPJ,
		CoreEnergyPJ:       m.CoreEnergyPJ,
		DRAMEnergyPJ:       m.DRAMEnergyPJ,
		Utilization:        m.Utilization,
		TheoreticalMaxUtil: m.TheoreticalMaxUtil,
		DRAMUtilization:    m.DRAMUtilization,
		TotalDRAMBytes:     m.TotalDRAMBytes,
		PeakBufferBytes:    m.PeakBufferBytes,
		AvgBufferBytes:     m.AvgBufferBytes,
	}
}

func jsonSchedule(s *core.Schedule) Schedule {
	st := s.Summarize()
	return Schedule{LGs: st.LGs, FLGs: st.FLGs, Tiles: st.Tiles, Tensors: st.Tensors}
}

func jsonHeader(spec Spec, cfg hw.Config, enc *core.Encoding, sched *core.Schedule) Result {
	encKey := enc.CanonicalKey()
	return Result{
		Workload: Workload{Model: spec.Model, Batch: spec.Batch},
		Hardware: Hardware{Name: spec.HW, Description: cfg.String(),
			GBufBytes: cfg.GBufBytes, DRAMBandwidth: cfg.DRAMBandwidth},
		Objective:      spec.Obj,
		Framework:      spec.Framework,
		Seed:           spec.Seed,
		EncodingKey:    hex.EncodeToString([]byte(encKey)),
		EncodingSHA256: sha(encKey),
		ScheduleSHA256: sha(sched.CanonicalKey()),
		Schedule:       jsonSchedule(sched),
	}
}

// FromSoma builds the payload for a SoMa exploration result.
func FromSoma(spec Spec, cfg hw.Config, res *soma.Result) *Result {
	r := jsonHeader(spec, cfg, res.Encoding, res.Schedule)
	r.Cost = res.Cost
	r.Metrics = jsonMetrics(res.Stage2.Metrics)
	r.Search = &Search{
		AllocIters:       res.AllocIters,
		Stage1Budget:     res.Stage1Budget,
		Stage1Cost:       res.Stage1.Cost,
		Stage2Cost:       res.Stage2.Cost,
		Chains:           res.Stage2.Stats.Chains,
		Workers:          res.Stage2.Stats.Workers,
		BestChain:        res.Stage2.Stats.BestChain,
		CacheHits:        res.Cache.Hits,
		CacheMisses:      res.Cache.Misses,
		CacheEntries:     res.Cache.Entries,
		CacheGenerations: res.Cache.Flushes,
	}
	r.Search.CacheHitRate = res.Cache.HitRate()
	r.Raw = &Raw{Encoding: res.Encoding, Schedule: res.Schedule,
		Metrics: res.Stage2.Metrics, Stage1Metrics: res.Stage1.Metrics,
		Stage1WallNS: res.Stage1WallNS, Stage2WallNS: res.Stage2WallNS}
	return &r
}

// FromCocco builds the payload for a Cocco baseline result.
func FromCocco(spec Spec, cfg hw.Config, res *cocco.Result) *Result {
	r := jsonHeader(spec, cfg, res.Encoding, res.Schedule)
	r.Cost = res.Cost
	r.Metrics = jsonMetrics(res.Metrics)
	r.Raw = &Raw{Encoding: res.Encoding, Schedule: res.Schedule, Metrics: res.Metrics}
	return &r
}

// WriteJSON emits the payload as indented JSON, the exact bytes the somad
// API serves for the same run.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Deterministic returns a copy of the payload reduced to what a fixed seed
// determines: the Raw artifacts, the wall-clock Telemetry section and the
// Convergence trajectory (whose samples carry cache-warmth-dependent
// incremental counters) are dropped, on the result and on every scenario
// component's isolated result. It is the one definition of the
// byte-comparable payload that somad stores and dse journals persist. The
// receiver is not modified; sections the copy keeps are shared with it. A
// nil receiver yields nil.
func (r *Result) Deterministic() *Result {
	if r == nil {
		return nil
	}
	out := *r
	out.Raw, out.Telemetry, out.Convergence = nil, nil, nil
	if r.Scenario != nil {
		sc := *r.Scenario
		sc.Components = append([]ScenarioComponent(nil), sc.Components...)
		for i := range sc.Components {
			sc.Components[i].Isolated = sc.Components[i].Isolated.Deterministic()
		}
		out.Scenario = &sc
	}
	return &out
}
