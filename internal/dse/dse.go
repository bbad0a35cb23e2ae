package dse

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"soma/internal/engine"
	"soma/internal/hw"
	"soma/internal/models"
	"soma/internal/obs"
	"soma/internal/report"
	"soma/internal/soma"
	"soma/internal/strictjson"
	"soma/internal/workload"
)

// Sweep declares a design-space exploration grid: every slice is one axis,
// and the grid is the cross product of all of them, expanded in a fixed,
// deterministic order (Expand). Empty axes select the usual single-value
// defaults - backend "soma", platform "edge", batch 1, the EDP objective,
// the profile's seed - so the minimal sweep is {"models": ["resnet50"]}.
//
// The struct doubles as the JSON sweep-spec schema consumed by
// `soma -sweep <file.json>` and `POST /v1/sweeps` (docs/dse.md documents
// every field with examples).
type Sweep struct {
	// Name labels the sweep in journals, progress events and reports.
	Name string `json:"name,omitempty"`

	// Backends is the solver axis ("soma", "cocco"; engine.Backends lists
	// the registered names). Default ["soma"].
	Backends []string `json:"backends,omitempty"`
	// Platforms is the named hardware-preset axis. Default ["edge"].
	Platforms []string `json:"platforms,omitempty"`
	// Models is the workload axis (model-zoo names). At least one of
	// Models or Scenarios must be non-empty.
	Models []string `json:"models,omitempty"`
	// Scenarios is the multi-model workload axis (built-in scenario
	// names; soma backend only). Scenario points ignore the batch axis -
	// a scenario carries its own per-component batches.
	Scenarios []string `json:"scenarios,omitempty"`
	// Batches is the batch-size axis for model points. Default [1].
	Batches []int `json:"batches,omitempty"`
	// DRAMGBs is the parametric DRAM-bandwidth axis in GB/s; each value
	// overrides the platform preset (hw.Config.WithDRAM). 0 keeps the
	// preset's bandwidth. Default [0].
	DRAMGBs []float64 `json:"dram_gbps,omitempty"`
	// GBufMB is the parametric global-buffer axis in MiB
	// (hw.Config.WithGBuf). 0 keeps the preset's capacity. Default [0].
	GBufMB []int64 `json:"gbuf_mb,omitempty"`
	// Objectives is the Energy^n x Delay^m exponent axis. Default EDP.
	Objectives []report.Objective `json:"objectives,omitempty"`
	// Seeds is the search-seed axis. Default: the resolved params' seed.
	Seeds []int64 `json:"seeds,omitempty"`

	// Search selects the search hyper-parameters by profile name plus
	// per-field overrides (the JSON-friendly form, mirroring the somad
	// job params). It is the spec's only parameter block.
	Search *Search `json:"search,omitempty"`

	// Workers bounds the goroutines running grid points concurrently
	// (<= 0 selects GOMAXPROCS-style NumCPU). Results and journal rows
	// are identical for any worker count.
	Workers int `json:"workers,omitempty"`

	// Convergence attaches per-point search diagnostics to every row
	// (Row.Convergence): the engine journals each point's annealing
	// trajectory and the row keeps the derived summary. The diagnostics
	// depend only on sampled move counts and costs, so journal rows stay
	// byte-identical for any worker count. Setting this changes the spec
	// digest - a journal written without diagnostics cannot resume into a
	// run that expects them.
	Convergence bool `json:"convergence,omitempty"`

	// Adaptive switches the sweep to the Pareto-guided successive-halving
	// driver (RunAdaptive, docs/dse.md): cheap probes across the whole grid,
	// then full-fidelity solves only for the budgeted points nearest the
	// probe-level cost-vs-buffer front plus a seeded exploration quota.
	// An empty block {} selects all defaults. Like Convergence, the block
	// is part of the spec digest - adaptive and exhaustive journals never
	// mix.
	Adaptive *Adaptive `json:"adaptive,omitempty"`
}

// Adaptive is the successive-halving block of a sweep spec. Zero values
// select grid-size-dependent defaults (withDefaults).
type Adaptive struct {
	// Budget caps the number of full-fidelity solves (rung 1). Default:
	// 30% of the grid, so an adaptive run spends well under half of the
	// exhaustive runs' full solves.
	Budget int `json:"budget,omitempty"`
	// Epsilon is the promotion band: a probed point is front-ranked when
	// its probe cost is within (1+Epsilon) of the probe-level front's cost
	// at its buffer size. Default 0.25.
	Epsilon float64 `json:"epsilon,omitempty"`
	// Explore reserves part of the budget for a seeded-deterministic
	// random draw from outside the front band, so a misleading probe
	// cannot permanently hide a region. Default: Budget/8, at least 1
	// when the budget allows it.
	Explore int `json:"explore,omitempty"`
}

// withDefaults resolves the zero fields against a concrete grid size. The
// resolved block is what promotion, stats and journal resume all use, so
// the defaults are part of the deterministic contract.
func (a Adaptive) withDefaults(n int) Adaptive {
	if a.Budget <= 0 {
		a.Budget = (3*n + 9) / 10 // ceil(0.3 * n)
	}
	if a.Budget > n {
		a.Budget = n
	}
	if a.Epsilon <= 0 {
		a.Epsilon = 0.25
	}
	if a.Explore <= 0 {
		a.Explore = a.Budget / 8
		if a.Explore == 0 && a.Budget > 1 {
			a.Explore = 1
		}
	}
	if a.Explore >= a.Budget {
		a.Explore = a.Budget - 1
	}
	if a.Explore < 0 {
		a.Explore = 0
	}
	return a
}

// Search is the JSON-friendly search-parameter block of a sweep spec: a
// named profile plus the same per-field overrides the soma CLI flags and the
// somad job API accept.
type Search struct {
	// Profile is fast|default|paper (default: default).
	Profile string `json:"profile,omitempty"`
	// Seed overrides the profile's base seed (the Seeds axis, when set,
	// overrides this per point).
	Seed int64 `json:"seed,omitempty"`
	// Chains / Workers size the per-point annealing portfolio.
	Chains  int `json:"chains,omitempty"`
	Workers int `json:"workers,omitempty"`
	// Beta1 / Beta2 override the stage iteration multipliers.
	Beta1 int `json:"beta1,omitempty"`
	Beta2 int `json:"beta2,omitempty"`
}

// ParseSweep decodes a JSON sweep spec strictly (unknown fields are
// rejected, so a typoed axis name fails loudly instead of silently sweeping
// nothing, and so is anything after the spec object).
func ParseSweep(data []byte) (Sweep, error) {
	var sw Sweep
	if err := strictjson.Decode(bytes.NewReader(data), &sw); err != nil {
		return Sweep{}, fmt.Errorf("dse: bad sweep spec: %w", err)
	}
	return sw, nil
}

// Params resolves the block into soma.Params: profile lookup, then the
// per-field overrides, including the CLI's Beta2 > 0 -> uncapped stage-2
// iterations coupling. The somad job API aliases this type and resolves
// through this same method, so job and sweep parameter semantics cannot
// drift.
func (s Search) Params() (soma.Params, error) {
	par, err := soma.ProfileParams(s.Profile)
	if err != nil {
		return soma.Params{}, err
	}
	if s.Seed != 0 {
		par.Seed = s.Seed
	}
	par.Chains = s.Chains
	par.Workers = s.Workers
	if s.Beta1 > 0 {
		par.Beta1 = s.Beta1
	}
	if s.Beta2 > 0 {
		par.Beta2 = s.Beta2
		par.Stage2MaxIters = 1 << 20
	}
	return par, nil
}

// normalized fills the single-value axis defaults and resolves the Search
// block into the soma.Params every point starts from (the Seeds axis then
// stamps the per-point seed).
func (s Sweep) normalized() (Sweep, soma.Params, error) {
	var sr Search
	if s.Search != nil {
		sr = *s.Search
	}
	par, err := sr.Params()
	if err != nil {
		return s, par, err
	}
	if len(s.Backends) == 0 {
		s.Backends = []string{"soma"}
	}
	if len(s.Platforms) == 0 {
		s.Platforms = []string{"edge"}
	}
	if len(s.Batches) == 0 {
		s.Batches = []int{1}
	}
	if len(s.DRAMGBs) == 0 {
		s.DRAMGBs = []float64{0}
	}
	if len(s.GBufMB) == 0 {
		s.GBufMB = []int64{0}
	}
	if len(s.Objectives) == 0 {
		s.Objectives = []report.Objective{{N: 1, M: 1}}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{par.Seed}
	}
	return s, par, nil
}

// Validate rejects specs that cannot expand into a well-formed grid: unknown
// backends, models, scenarios or platforms, non-positive batches, negative
// hardware overrides, or a scenario axis paired with a non-soma backend.
// Per-point search failures (e.g. an infeasible buffer size) are not spec
// errors; they surface as error rows at run time, like the paper's
// infeasible Fig. 7 cells.
func (s Sweep) Validate() error {
	s, _, err := s.normalized()
	if err != nil {
		return err
	}
	if len(s.Models) == 0 && len(s.Scenarios) == 0 {
		return fmt.Errorf("dse: sweep needs at least one model or scenario")
	}
	for _, b := range s.Backends {
		if _, err := engine.Get(b); err != nil {
			return err
		}
		if b != "soma" && len(s.Scenarios) > 0 {
			return fmt.Errorf("dse: scenario points run the soma backend only, got %q", b)
		}
	}
	for _, p := range s.Platforms {
		if _, err := hw.Platform(p); err != nil {
			return err
		}
	}
	for _, m := range s.Models {
		if !models.Known(m) {
			return fmt.Errorf("dse: unknown model %q", m)
		}
	}
	for _, sc := range s.Scenarios {
		if _, err := workload.Builtin(sc); err != nil {
			return err
		}
	}
	for _, b := range s.Batches {
		if b <= 0 {
			return fmt.Errorf("dse: batch must be positive, got %d", b)
		}
	}
	for _, d := range s.DRAMGBs {
		if d < 0 {
			return fmt.Errorf("dse: dram_gbps must be >= 0, got %g", d)
		}
	}
	for _, g := range s.GBufMB {
		if g < 0 || g > hw.MaxGBufMB {
			return fmt.Errorf("dse: gbuf_mb must be in [0, %d], got %d", hw.MaxGBufMB, g)
		}
	}
	if a := s.Adaptive; a != nil {
		if a.Budget < 0 {
			return fmt.Errorf("dse: adaptive budget must be >= 0, got %d", a.Budget)
		}
		if a.Epsilon < 0 {
			return fmt.Errorf("dse: adaptive epsilon must be >= 0, got %g", a.Epsilon)
		}
		if a.Explore < 0 {
			return fmt.Errorf("dse: adaptive explore must be >= 0, got %d", a.Explore)
		}
	}
	return nil
}

// MaxServedPoints bounds the grid of a spec that arrives over HTTP - a
// POST /v1/sweeps submission or a cluster lease - so a small body declaring
// a huge cross product is refused before anything expands it.
const MaxServedPoints = 4096

// CheckServed refuses a spec whose grid exceeds MaxServedPoints, without
// expanding it.
func (s Sweep) CheckServed() error {
	if n := s.GridSize(); n > MaxServedPoints {
		return fmt.Errorf("sweep expands to %d points, limit %d", n, MaxServedPoints)
	}
	return nil
}

// GridSize returns the number of points the spec expands to, without
// materializing them (CheckServed bounds request size with it). The product
// saturates at math.MaxInt on overflow.
func (s Sweep) GridSize() int {
	s, _, err := s.normalized()
	if err != nil {
		return 0
	}
	size := len(s.Models)*len(s.Batches) + len(s.Scenarios)
	for _, n := range []int{len(s.Backends), len(s.Platforms),
		len(s.DRAMGBs), len(s.GBufMB), len(s.Objectives), len(s.Seeds)} {
		if n != 0 && size > math.MaxInt/n {
			return math.MaxInt
		}
		size *= n
	}
	return size
}

// Expand validates the spec and enumerates the point grid in its canonical
// order: backend (outermost), platform, model then scenario, batch (model
// points only), DRAM bandwidth, buffer size, objective, seed (innermost).
// The order is part of the journal format - resuming a sweep relies on point
// indices meaning the same cell across processes.
func (s Sweep) Expand() ([]Point, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s, _, err := s.normalized()
	if err != nil {
		return nil, err
	}
	var pts []Point
	add := func(p Point) {
		p.Index = len(pts)
		pts = append(pts, p)
	}
	hwAxes := func(p Point) {
		for _, d := range s.DRAMGBs {
			for _, g := range s.GBufMB {
				for _, obj := range s.Objectives {
					for _, seed := range s.Seeds {
						q := p
						q.DRAMGBs, q.GBufMB, q.Objective, q.Seed = d, g, obj, seed
						add(q)
					}
				}
			}
		}
	}
	for _, b := range s.Backends {
		for _, pf := range s.Platforms {
			for _, m := range s.Models {
				for _, batch := range s.Batches {
					hwAxes(Point{Backend: b, Platform: pf, Model: m, Batch: batch})
				}
			}
			for _, sc := range s.Scenarios {
				hwAxes(Point{Backend: b, Platform: pf, Scenario: sc})
			}
		}
	}
	return pts, nil
}

// SpecSHA256 digests the canonical JSON encoding of the spec; journals store
// it so a resume against an edited spec fails instead of mixing grids. The
// worker-count knobs (grid workers, portfolio workers) are excluded: they
// only change wall-clock time, never any row, so a sweep journaled serially
// resumes under any parallelism.
func (s Sweep) SpecSHA256() (string, error) {
	s.Workers = 0
	if s.Search != nil {
		c := *s.Search
		c.Workers = 0
		s.Search = &c
	}
	data, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Point is one cell of the expanded grid.
type Point struct {
	// Index is the point's position in the canonical expansion order.
	Index int `json:"index"`
	// Backend / Platform / Model or Scenario / Batch locate the workload.
	Backend  string `json:"backend"`
	Platform string `json:"platform"`
	Model    string `json:"model,omitempty"`
	Scenario string `json:"scenario,omitempty"`
	Batch    int    `json:"batch,omitempty"`
	// DRAMGBs / GBufMB are the parametric hardware overrides (0 = keep
	// the platform preset's value).
	DRAMGBs float64 `json:"dram_gbps,omitempty"`
	GBufMB  int64   `json:"gbuf_mb,omitempty"`
	// Objective / Seed are the per-point search goal and seed.
	Objective report.Objective `json:"objective"`
	Seed      int64            `json:"seed"`
}

// Label renders the point compactly for progress events and reports, e.g.
// "soma/edge/resnet50/b4/d32/g8MB".
func (p Point) Label() string {
	w := p.Model
	if p.Scenario != "" {
		w = "scenario:" + p.Scenario
	}
	s := fmt.Sprintf("%s/%s/%s", p.Backend, p.Platform, w)
	if p.Batch > 0 {
		s += fmt.Sprintf("/b%d", p.Batch)
	}
	if p.DRAMGBs > 0 {
		s += fmt.Sprintf("/d%g", p.DRAMGBs)
	}
	if p.GBufMB > 0 {
		s += fmt.Sprintf("/g%dMB", p.GBufMB)
	}
	if p.Objective.N != 1 || p.Objective.M != 1 {
		s += fmt.Sprintf("/e%gd%g", p.Objective.N, p.Objective.M)
	}
	return s + fmt.Sprintf("/s%d", p.Seed)
}

// Request materializes the engine request solving this point. Hardware
// overrides apply DRAM first, then GBuf - the same composition order the
// Fig. 7 sweep used, so preset names (and therefore payload headers) match
// the pre-dse drivers byte for byte.
func (p Point) Request(par soma.Params) (engine.Request, error) {
	par.Seed = p.Seed
	req := engine.Request{
		Backend:   p.Backend,
		Platform:  p.Platform,
		Objective: soma.Objective{N: p.Objective.N, M: p.Objective.M},
		Params:    par,
	}
	if p.Scenario != "" {
		sc, err := workload.Builtin(p.Scenario)
		if err != nil {
			return engine.Request{}, err
		}
		req.Scenario = &sc
	} else {
		req.Model = p.Model
		req.Batch = p.Batch
	}
	if p.DRAMGBs > 0 || p.GBufMB > 0 {
		cfg, err := hw.Platform(p.Platform)
		if err != nil {
			return engine.Request{}, err
		}
		if p.DRAMGBs > 0 {
			cfg = cfg.WithDRAM(p.DRAMGBs)
		}
		if p.GBufMB > 0 {
			cfg = cfg.WithGBuf(p.GBufMB << 20)
		}
		req.Config = &cfg
	}
	return req, nil
}

// Row is one completed grid point: the point, and either its result payload
// or the search error. Rows are what the journal persists and what the
// aggregation helpers consume.
type Row struct {
	Point Point `json:"point"`
	// Result is the engine payload (nil when Err is set). In-process rows
	// keep Result.Raw attached for trace/figure callers; journaled and
	// API-served rows are Scrubbed.
	Result *report.Result `json:"result,omitempty"`
	// Err records a per-point search failure (e.g. an infeasible buffer
	// size); the sweep itself keeps going, like Fig. 7's infeasible cells.
	Err string `json:"error,omitempty"`
	// Convergence is the per-point search-diagnostics summary, attached
	// when the spec sets "convergence". Unlike the full Result.Convergence
	// section - scrubbed from persisted rows because its samples carry
	// cache-warmth-dependent incremental counters - the diagnostics derive
	// only from sampled costs and move counts, so journaled rows stay
	// byte-identical across worker counts and resumes.
	Convergence *obs.Diagnostics `json:"convergence,omitempty"`
	// Fidelity marks adaptive rows: FidelityProbe for the scaled-down
	// rung-0 solve, FidelityFull for a promoted full solve. Exhaustive
	// rows leave it empty, so pre-adaptive journals are byte-identical
	// under the extended schema.
	Fidelity string `json:"fidelity,omitempty"`
}

// Scrubbed returns a copy of the row safe to persist and compare across
// runs: the result is reduced to its deterministic payload
// (report.Result.Deterministic), and the evaluation-cache counters in the
// search stats are zeroed - they depend on cache warmth and
// worker interleaving, which would break the journal's guarantee that
// parallel and serial sweeps (and resumed and uninterrupted ones) produce
// byte-identical rows. Everything the schedule determines - cost, metrics,
// encoding digests - is preserved.
func (r Row) Scrubbed() Row {
	r.Result = scrubResult(r.Result)
	return r
}

// scrubResult is the deterministic payload (report.Result.Deterministic)
// with the evaluation-cache counters zeroed, here and on every scenario
// component: a sweep's points share one cache, so the counters depend on
// which points ran first.
func scrubResult(res *report.Result) *report.Result {
	out := res.Deterministic()
	if out == nil {
		return nil
	}
	zeroCacheCounters(out)
	if out.Scenario != nil {
		for i := range out.Scenario.Components {
			if iso := out.Scenario.Components[i].Isolated; iso != nil {
				zeroCacheCounters(iso)
			}
		}
	}
	return out
}

// zeroCacheCounters replaces res.Search by a copy without cache counters.
func zeroCacheCounters(res *report.Result) {
	if res.Search == nil {
		return
	}
	s := *res.Search
	s.CacheHits, s.CacheMisses, s.CacheEntries, s.CacheGenerations = 0, 0, 0, 0
	s.CacheHitRate = 0
	res.Search = &s
}
