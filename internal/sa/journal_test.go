package sa

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"soma/internal/obs"
)

// kindedMoves is a tiny MoveState over an integer walk that implements both
// optional journal extensions, for exercising the journal plumbing end to
// end without a real simulator.
type kindedMoves struct {
	cur, cand int
	kind      string
	resumed   int64
}

func (m *kindedMoves) InitCost() float64 { return math.Abs(float64(m.cur - 42)) }

func (m *kindedMoves) Propose(rng *rand.Rand) (float64, bool) {
	step := rng.Intn(7) - 3
	if step == 0 {
		return 0, false
	}
	if step > 0 {
		m.kind = "up"
	} else {
		m.kind = "down"
	}
	m.cand = m.cur + step
	m.resumed++
	return math.Abs(float64(m.cand - 42)), true
}

func (m *kindedMoves) Accept()                 { m.cur = m.cand }
func (m *kindedMoves) Reject()                 {}
func (m *kindedMoves) Snapshot() int           { return m.cur }
func (m *kindedMoves) MoveKind() string        { return m.kind }
func (m *kindedMoves) IncCounts() (r, f int64) { return m.resumed, 0 }

// TestJournalDoesNotPerturbRun pins the journal's pass-through contract at
// the annealer level: a fixed-seed run returns the identical solution, cost,
// and stats with a journal attached or not, serial and portfolio alike.
func TestJournalDoesNotPerturbRun(t *testing.T) {
	run := func(j *obs.Journal) (int, float64, PortfolioStats) {
		cfg := Config{T0: 0.25, Alpha: 4, Iters: 3000, Seed: 7}
		pf := PortfolioConfig{Chains: 3, Workers: 2}
		if j != nil {
			pf.Journal = func(c int) *obs.Series { return j.Series("test", 0, c) }
		}
		return RunMovesPortfolioCtx(context.Background(), cfg, pf, func(int) MoveState[int] {
			return &kindedMoves{cur: 500}
		})
	}
	bareBest, bareCost, bareStats := run(nil)
	j := obs.NewJournalWith(16, 64)
	jBest, jCost, jStats := run(j)
	if bareBest != jBest || bareCost != jCost {
		t.Fatalf("journal perturbed the run: %d/%g vs %d/%g",
			bareBest, bareCost, jBest, jCost)
	}
	for c := range bareStats.PerChain {
		if bareStats.PerChain[c] != jStats.PerChain[c] {
			t.Fatalf("chain %d stats diverged: %+v vs %+v",
				c, bareStats.PerChain[c], jStats.PerChain[c])
		}
	}

	rep := obs.BuildConvergence(j, "test")
	if len(rep.Series) != 3 {
		t.Fatalf("series = %d, want one per chain", len(rep.Series))
	}
	for c, cs := range rep.Series {
		st := jStats.PerChain[c]
		if cs.Chain != c || !cs.Finished {
			t.Errorf("series %d = chain %d finished %v", c, cs.Chain, cs.Finished)
		}
		if cs.Moves != int64(st.Iterations) {
			t.Errorf("chain %d journaled %d moves, stats say %d", c, cs.Moves, st.Iterations)
		}
		if cs.BestMove != int64(st.BestIter) {
			t.Errorf("chain %d best move %d, stats say %d", c, cs.BestMove, st.BestIter)
		}
		var acc, rej int64
		for _, kc := range cs.Kinds {
			acc += kc.Accepted
			rej += kc.Rejected
		}
		if acc != int64(st.Accepted) || rej != int64(st.Rejected) {
			t.Errorf("chain %d kind tallies %d/%d, stats %d/%d",
				c, acc, rej, st.Accepted, st.Rejected)
		}
		// kindedMoves bumps its resumed count on every productive proposal.
		last := cs.Samples[len(cs.Samples)-1]
		if want := int64(st.Accepted + st.Rejected); last.IncResumed != want {
			t.Errorf("chain %d final IncResumed = %d, want %d", c, last.IncResumed, want)
		}
	}
	d := rep.Diagnostics
	if d == nil || d.Chain != jStats.BestChain {
		t.Fatalf("diagnostics winner = %+v, portfolio says chain %d", d, jStats.BestChain)
	}
	if d.FinalBest != jCost {
		t.Errorf("diagnostics FinalBest = %g, want %g", d.FinalBest, jCost)
	}
}

// TestJournalSingleChainSeries: the Chains==1 fast path wires chain 0's
// series too.
func TestJournalSingleChainSeries(t *testing.T) {
	j := obs.NewJournalWith(8, 32)
	cfg := Config{T0: 0.25, Alpha: 4, Iters: 500, Seed: 3}
	pf := PortfolioConfig{Journal: func(c int) *obs.Series { return j.Series("solo", 1, c) }}
	_, cost, _ := RunMovesPortfolioCtx(context.Background(), cfg, pf, func(int) MoveState[int] {
		return &kindedMoves{cur: 99}
	})
	rep := obs.BuildConvergence(j)
	if len(rep.Series) != 1 || rep.Series[0].Chain != 0 || rep.Series[0].AllocIter != 1 {
		t.Fatalf("series = %+v, want single chain-0 series", rep.Series)
	}
	if rep.Series[0].FinalBest != cost {
		t.Errorf("journaled final best %g, run returned %g", rep.Series[0].FinalBest, cost)
	}
	if len(rep.Series[0].Samples) < 2 {
		t.Errorf("only %d samples for a 500-move run at stride 8", len(rep.Series[0].Samples))
	}
}
