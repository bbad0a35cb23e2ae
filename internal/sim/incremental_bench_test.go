package sim

import (
	"math/rand"
	"testing"

	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/hw"
	"soma/internal/models"
)

// benchState builds the stage-2 starting point of one zoo model: the parsed
// default encoding with precomputed tile costs (stage 2 never re-tiles).
func benchState(b *testing.B) (*core.Schedule, *coresched.Scheduler, Options) {
	b.Helper()
	g, err := models.Build("mobilenetv2", 1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.Parse(g, core.DefaultEncoding(g, 1))
	if err != nil {
		b.Fatal(err)
	}
	cs := coresched.New(hw.Edge())
	return s, cs, Options{TileCosts: PrecomputeTileCosts(s, cs)}
}

// BenchmarkIncrementalMove costs one DLSA proposal on the incremental
// evaluator: apply a move, re-simulate the affected suffix, accept or
// reject. This is the stage-2 hot path; somabench snapshot records it per
// zoo model into the committed BENCH trajectory.
func BenchmarkIncrementalMove(b *testing.B) {
	s, cs, opt := benchState(b)
	inc, err := NewIncremental(s.Clone(), cs, opt)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !proposeRandomMove(inc, rng) {
			continue
		}
		if _, err := inc.EvaluateProposal(); err != nil {
			inc.Reject()
			continue
		}
		if rng.Intn(2) == 0 {
			inc.Accept()
		} else {
			inc.Reject()
		}
	}
}

// BenchmarkFullEvaluateMove costs the same proposal on the historical
// clone-and-replay path the move-aware annealer replaced: clone the
// schedule, mutate the clone, evaluate it from scratch.
func BenchmarkFullEvaluateMove(b *testing.B) {
	s, cs, opt := benchState(b)
	cur := s.Clone()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cand := cur.Clone()
		if !applyRandomMove(cand, rng) {
			continue
		}
		if _, err := Evaluate(cand, cs, opt); err != nil {
			continue
		}
		if rng.Intn(2) == 0 {
			cur = cand
		}
	}
}

// applyRandomMove is proposeRandomMove applied directly to a schedule (the
// historical path had no evaluator to route moves through). Same operator
// mix, same changed-or-not semantics.
func applyRandomMove(s *core.Schedule, rng *rand.Rand) bool {
	switch rng.Intn(3) {
	case 0:
		return s.MoveTensor(rng.Intn(len(s.Order)), rng.Intn(len(s.Order)))
	case 1:
		id := rng.Intn(len(s.Tensors))
		if !s.Tensors[id].Kind.IsLoad() {
			return false
		}
		delta := 1 + rng.Intn(4)
		if rng.Intn(2) == 0 {
			delta = -delta
		}
		return s.SetLiving(id, s.Tensors[id].Start+delta)
	default:
		id := rng.Intn(len(s.Tensors))
		if s.Tensors[id].Kind.IsLoad() {
			return false
		}
		delta := 1 + rng.Intn(4)
		if rng.Intn(2) == 0 {
			delta = -delta
		}
		return s.SetLiving(id, s.Tensors[id].End+delta)
	}
}
