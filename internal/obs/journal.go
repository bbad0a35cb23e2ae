package obs

import (
	"math"
	"sort"
	"sync"
)

// Journal collects bounded convergence series for one solver run: one Series
// per (stage, allocator iteration, chain) triple, each sampling the annealing
// trajectory at a fixed move-count stride. Like every obs instrument it is
// pass-through observation only - the annealer records cumulative counters it
// already tracks, never reads anything back, and a fixed-seed run produces
// byte-identical results with a journal attached or not.
//
// All methods are nil-safe (a nil *Journal yields nil Series whose methods
// are no-ops) and concurrency-safe: portfolio chains write their own series
// concurrently, and the somad dashboard snapshots a running job's journal
// live.
type Journal struct {
	mu     sync.Mutex
	stride int
	max    int
	series []*Series
	index  map[seriesKey]*Series
}

type seriesKey struct {
	stage     string
	allocIter int
	chain     int
}

// DefaultJournalStride is the move-count sampling stride; DefaultJournalCap
// bounds the samples retained per series (beyond it the series decimates:
// every second sample is dropped and the effective stride doubles, so long
// runs keep full-range coverage at fixed memory).
const (
	DefaultJournalStride = 64
	DefaultJournalCap    = 256
)

// NewJournal builds a journal with the default stride and per-series cap.
func NewJournal() *Journal { return NewJournalWith(0, 0) }

// NewJournalWith builds a journal sampling every stride moves and retaining
// at most capSamples samples per series (<= 0 selects the defaults).
func NewJournalWith(stride, capSamples int) *Journal {
	if stride <= 0 {
		stride = DefaultJournalStride
	}
	if capSamples <= 4 {
		capSamples = DefaultJournalCap
	}
	return &Journal{stride: stride, max: capSamples,
		index: make(map[seriesKey]*Series)}
}

// Series returns the (created-on-first-use) series for one annealing chain,
// identified by stage label ("stage1", "stage2", "cocco"), allocator
// iteration and chain index. Returns nil on a nil journal.
func (j *Journal) Series(stage string, allocIter, chain int) *Series {
	if j == nil {
		return nil
	}
	key := seriesKey{stage: stage, allocIter: allocIter, chain: chain}
	j.mu.Lock()
	defer j.mu.Unlock()
	if s, ok := j.index[key]; ok {
		return s
	}
	s := &Series{stage: stage, allocIter: allocIter, chain: chain,
		base: j.stride, stride: j.stride, max: j.max}
	j.index[key] = s
	j.series = append(j.series, s)
	return s
}

// Sample is one point of a convergence series. All counters are cumulative
// since the chain started, so windowed rates derive from consecutive samples
// and decimation never loses totals. Costs are sanitized at record time:
// +Inf (infeasible) becomes -1, the same convention the engine's progress
// events use, so samples always JSON-encode.
type Sample struct {
	// Move is the 1-based move count at the sample point (0 for the initial
	// state sample).
	Move int64 `json:"move"`
	// Proposed counts every proposal (productive or not); Accepted/Rejected
	// split the productive ones; Improved counts incumbent improvements.
	Proposed int64 `json:"proposed"`
	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
	Improved int64 `json:"improved"`
	// BestCost/CurCost are the incumbent and current costs (-1 = infeasible).
	BestCost float64 `json:"best_cost"`
	CurCost  float64 `json:"cur_cost"`
	// Temperature is the cooling schedule's value at Move.
	Temperature float64 `json:"temperature"`
	// AcceptRate is the windowed acceptance rate since the previous retained
	// sample (accepted delta over proposed delta). Derived at snapshot time,
	// so decimation widens the window instead of corrupting the rate.
	AcceptRate float64 `json:"accept_rate"`
	// IncResumed/IncFallbacks mirror the incremental evaluator's cumulative
	// per-chain counters when the move state exposes them (stage 2). Their
	// split depends on shared-cache warmth, so they are deterministic only
	// for serial runs; every other field is seed-deterministic for any
	// worker count.
	IncResumed   int64 `json:"inc_resumed,omitempty"`
	IncFallbacks int64 `json:"inc_fallbacks,omitempty"`
}

// KindCount is one move operator's cumulative accept/reject tally.
type KindCount struct {
	Kind     string `json:"kind"`
	Accepted int64  `json:"accepted"`
	Rejected int64  `json:"rejected"`
}

// Series is one chain's bounded convergence trajectory. The annealer owns
// the write side; snapshots may be taken concurrently at any time.
type Series struct {
	mu        sync.Mutex
	stage     string
	allocIter int
	chain     int
	// base is the journal's configured stride (what the annealer samples
	// at); stride is the effective retention stride, doubling on decimation.
	base, stride, max int
	samples           []Sample
	kinds             map[string]*KindCount
	bestMove          int64
	finished          bool
}

// SampleStride returns the base sampling stride the recording loop should
// use (0 on a nil series, which callers treat as "journal off").
func (s *Series) SampleStride() int {
	if s == nil {
		return 0
	}
	return s.base
}

// sanitizeCost maps +Inf (infeasible) to -1 so samples JSON-encode.
func sanitizeCost(c float64) float64 {
	if math.IsInf(c, 0) || math.IsNaN(c) {
		return -1
	}
	return c
}

// Record appends one sample if its Move lands on the effective retention
// stride (Move 0, the initial-state sample, always does). When the series
// reaches its cap it decimates: every second retained sample is dropped and
// the effective stride doubles - deterministic, and the retained moves stay
// exact multiples of the new stride. No-op on a nil series or after Finish.
func (s *Series) Record(sm Sample) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return
	}
	if s.stride > 0 && sm.Move%int64(s.stride) != 0 {
		return
	}
	sm.BestCost = sanitizeCost(sm.BestCost)
	sm.CurCost = sanitizeCost(sm.CurCost)
	s.samples = append(s.samples, sm)
	if len(s.samples) >= s.max {
		kept := s.samples[:0]
		for i := range s.samples {
			if i%2 == 0 {
				kept = append(kept, s.samples[i])
			}
		}
		s.samples = kept
		s.stride *= 2
	}
}

// MoveOutcome tallies one productive move's accept/reject under its operator
// kind. No-op on a nil series or after Finish.
func (s *Series) MoveOutcome(kind string, accepted bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return
	}
	if s.kinds == nil {
		s.kinds = make(map[string]*KindCount)
	}
	kc, ok := s.kinds[kind]
	if !ok {
		kc = &KindCount{Kind: kind}
		s.kinds[kind] = kc
	}
	if accepted {
		kc.Accepted++
	} else {
		kc.Rejected++
	}
}

// Finish records the chain's terminal sample (always retained, whatever the
// stride) and the move index of its last incumbent improvement, then seals
// the series. Idempotent; no-op on a nil series.
func (s *Series) Finish(sm Sample, bestMove int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return
	}
	sm.BestCost = sanitizeCost(sm.BestCost)
	sm.CurCost = sanitizeCost(sm.CurCost)
	if n := len(s.samples); n == 0 || s.samples[n-1].Move != sm.Move {
		s.samples = append(s.samples, sm)
	} else {
		s.samples[n-1] = sm
	}
	s.bestMove = bestMove
	s.finished = true
}

// snapshot copies the series under its lock, deriving the windowed
// acceptance rate from consecutive cumulative counts.
func (s *Series) snapshot() ConvergenceSeries {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := ConvergenceSeries{Stage: s.stage, AllocIter: s.allocIter,
		Chain: s.chain, Stride: s.stride, Finished: s.finished,
		BestMove: s.bestMove, FinalBest: -1,
		Samples: append([]Sample(nil), s.samples...)}
	var prev Sample
	for i := range cs.Samples {
		sm := &cs.Samples[i]
		if dp := sm.Proposed - prev.Proposed; dp > 0 {
			sm.AcceptRate = float64(sm.Accepted-prev.Accepted) / float64(dp)
		}
		prev = cs.Samples[i]
	}
	if n := len(cs.Samples); n > 0 {
		last := cs.Samples[n-1]
		cs.Moves = last.Proposed
		cs.FinalBest = last.BestCost
	}
	cs.Kinds = make([]KindCount, 0, len(s.kinds))
	for _, kc := range s.kinds {
		cs.Kinds = append(cs.Kinds, *kc)
	}
	sort.Slice(cs.Kinds, func(a, b int) bool { return cs.Kinds[a].Kind < cs.Kinds[b].Kind })
	if len(cs.Kinds) == 0 {
		cs.Kinds = nil
	}
	return cs
}

// snapshotSeries snapshots every series in deterministic (stage, allocIter,
// chain) order - portfolio chains create series concurrently, so creation
// order alone is not stable.
func (j *Journal) snapshotSeries() []ConvergenceSeries {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	series := append([]*Series(nil), j.series...)
	j.mu.Unlock()
	out := make([]ConvergenceSeries, 0, len(series))
	for _, s := range series {
		out = append(out, s.snapshot())
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Stage != out[b].Stage {
			return out[a].Stage < out[b].Stage
		}
		if out[a].AllocIter != out[b].AllocIter {
			return out[a].AllocIter < out[b].AllocIter
		}
		return out[a].Chain < out[b].Chain
	})
	return out
}
