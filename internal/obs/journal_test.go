package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestJournalNilSafety: a nil journal and nil series must absorb every call,
// and a nil journal builds a nil report - the "journal off" path.
func TestJournalNilSafety(t *testing.T) {
	var j *Journal
	s := j.Series("stage1", 0, 0)
	if s != nil {
		t.Fatal("nil journal handed out a series")
	}
	if s.SampleStride() != 0 {
		t.Error("nil series has a stride")
	}
	s.Record(Sample{Move: 0})
	s.MoveOutcome("order", true)
	s.Finish(Sample{Move: 10}, 3)
	if j.snapshotSeries() != nil {
		t.Error("nil journal snapshot non-nil")
	}
	if BuildConvergence(j, "stage2") != nil {
		t.Error("nil journal built a report")
	}
}

// TestJournalStride: only moves on the stride (plus move 0 and the Finish
// sample) are retained.
func TestJournalStride(t *testing.T) {
	j := NewJournalWith(10, 100)
	s := j.Series("stage1", 0, 0)
	if s.SampleStride() != 10 {
		t.Fatalf("stride = %d, want 10", s.SampleStride())
	}
	for n := int64(0); n <= 25; n++ {
		s.Record(Sample{Move: n, Proposed: n})
	}
	s.Finish(Sample{Move: 25, Proposed: 25}, 7)
	cs := j.snapshotSeries()[0]
	moves := make([]int64, len(cs.Samples))
	for i, sm := range cs.Samples {
		moves[i] = sm.Move
	}
	want := []int64{0, 10, 20, 25}
	if len(moves) != len(want) {
		t.Fatalf("retained moves %v, want %v", moves, want)
	}
	for i := range want {
		if moves[i] != want[i] {
			t.Fatalf("retained moves %v, want %v", moves, want)
		}
	}
	if !cs.Finished || cs.BestMove != 7 || cs.Moves != 25 {
		t.Errorf("series = finished %v best %d moves %d, want true 7 25",
			cs.Finished, cs.BestMove, cs.Moves)
	}
	// Finish seals: later writes are dropped.
	s.Record(Sample{Move: 30})
	s.MoveOutcome("late", true)
	s.Finish(Sample{Move: 40}, 9)
	cs = j.snapshotSeries()[0]
	if n := len(cs.Samples); cs.Samples[n-1].Move != 25 || cs.BestMove != 7 {
		t.Error("sealed series accepted writes")
	}
	if cs.Kinds != nil {
		t.Error("sealed series tallied a kind")
	}
}

// TestJournalDecimation: past the cap the series halves itself and doubles
// its effective stride, so memory stays bounded while retained moves remain
// exact multiples of the (reported) stride spanning the full run.
func TestJournalDecimation(t *testing.T) {
	j := NewJournalWith(1, 8)
	s := j.Series("stage2", 1, 0)
	const total = 1000
	for n := int64(0); n <= total; n++ {
		s.Record(Sample{Move: n, Proposed: n, BestCost: float64(2*total - n)})
	}
	s.Finish(Sample{Move: total, Proposed: total, BestCost: float64(total)}, total-1)
	cs := j.snapshotSeries()[0]
	if len(cs.Samples) > 8 {
		t.Fatalf("retained %d samples, cap 8", len(cs.Samples))
	}
	if cs.Stride < 128 {
		t.Errorf("effective stride %d, want >= 128 after decimation", cs.Stride)
	}
	for _, sm := range cs.Samples[:len(cs.Samples)-1] {
		if sm.Move%int64(cs.Stride) != 0 {
			t.Errorf("retained move %d not a multiple of stride %d", sm.Move, cs.Stride)
		}
	}
	if cs.Samples[0].Move != 0 {
		t.Error("decimation dropped the initial sample")
	}
	if last := cs.Samples[len(cs.Samples)-1]; last.Move != total {
		t.Errorf("terminal sample at move %d, want %d", last.Move, total)
	}
}

// TestJournalAcceptRate: the windowed rate derives from consecutive
// cumulative counters at snapshot time.
func TestJournalAcceptRate(t *testing.T) {
	j := NewJournalWith(10, 100)
	s := j.Series("stage1", 0, 0)
	s.Record(Sample{Move: 0})
	s.Record(Sample{Move: 10, Proposed: 10, Accepted: 8})
	s.Record(Sample{Move: 20, Proposed: 20, Accepted: 10})
	cs := j.snapshotSeries()[0]
	if got := cs.Samples[1].AcceptRate; got != 0.8 {
		t.Errorf("window 1 accept rate = %v, want 0.8", got)
	}
	if got := cs.Samples[2].AcceptRate; got != 0.2 {
		t.Errorf("window 2 accept rate = %v, want 0.2", got)
	}
	if cs.Finished {
		t.Error("unfinished series reported finished")
	}
}

// TestJournalSanitizesCosts: infeasible (+Inf) and NaN costs become -1 so
// every sample JSON-encodes.
func TestJournalSanitizesCosts(t *testing.T) {
	j := NewJournalWith(1, 100)
	s := j.Series("cocco", 0, 0)
	s.Record(Sample{Move: 0, BestCost: math.Inf(1), CurCost: math.NaN()})
	s.Finish(Sample{Move: 1, Proposed: 1, BestCost: math.Inf(1), CurCost: math.Inf(1)}, 0)
	cs := j.snapshotSeries()[0]
	if cs.Samples[0].BestCost != -1 || cs.Samples[0].CurCost != -1 {
		t.Errorf("sample 0 = %+v, want sanitized costs", cs.Samples[0])
	}
	if cs.FinalBest != -1 {
		t.Errorf("FinalBest = %v, want -1", cs.FinalBest)
	}
	if _, err := json.Marshal(BuildConvergence(j)); err != nil {
		t.Fatalf("report does not JSON-encode: %v", err)
	}
}

// TestJournalKindsAndOrdering: kind tallies come back sorted by name, and
// series sort by (stage, allocIter, chain) whatever the creation order.
func TestJournalKindsAndOrdering(t *testing.T) {
	j := NewJournal()
	s := j.Series("stage2", 2, 1)
	j.Series("stage2", 2, 0)
	j.Series("stage1", 2, 0)
	j.Series("stage2", 1, 3)
	s.MoveOutcome("move-tensor", true)
	s.MoveOutcome("duration", false)
	s.MoveOutcome("duration", true)
	all := j.snapshotSeries()
	var order []string
	for _, cs := range all {
		order = append(order, cs.Stage)
	}
	if strings.Join(order, ",") != "stage1,stage2,stage2,stage2" {
		t.Fatalf("stage order %v", order)
	}
	if all[1].AllocIter != 1 || all[2].Chain != 0 || all[3].Chain != 1 {
		t.Errorf("series order = %+v", all)
	}
	kinds := all[3].Kinds
	if len(kinds) != 2 || kinds[0].Kind != "duration" || kinds[1].Kind != "move-tensor" {
		t.Fatalf("kinds = %+v, want sorted [duration move-tensor]", kinds)
	}
	if kinds[0].Accepted != 1 || kinds[0].Rejected != 1 || kinds[1].Accepted != 1 {
		t.Errorf("kind tallies = %+v", kinds)
	}
	// Same key returns the same series.
	if j.Series("stage2", 2, 1) != s {
		t.Error("series not shared by key")
	}
}

// TestBuildConvergenceDiagnostics: winner selection honors the stage
// preference and the cost/allocIter/chain tie-breaks, and the derived
// numbers (moves-to-within-X%, plateau, dispersion) match hand computation.
func TestBuildConvergenceDiagnostics(t *testing.T) {
	j := NewJournalWith(10, 100)

	// stage1 has a lower cost but must lose to the preferred stage2.
	s1 := j.Series("stage1", 1, 0)
	s1.Record(Sample{Move: 0, BestCost: 50})
	s1.Finish(Sample{Move: 100, Proposed: 100, BestCost: 1}, 90)

	// Two stage2 chains; chain 1 wins on final cost.
	a := j.Series("stage2", 1, 0)
	a.Record(Sample{Move: 0, BestCost: 100})
	a.Finish(Sample{Move: 200, Proposed: 200, BestCost: 12}, 150)

	b := j.Series("stage2", 1, 1)
	b.Record(Sample{Move: 0, BestCost: 100})
	b.Record(Sample{Move: 10, Proposed: 10, Accepted: 5, BestCost: 11})    // 11 <= 10*1.10: within 10%
	b.Record(Sample{Move: 20, Proposed: 20, Accepted: 10, BestCost: 10.4}) // 10.4 <= 10*1.05: within 5%
	b.Finish(Sample{Move: 200, Proposed: 200, BestCost: 10}, 180)

	rep := BuildConvergence(j, "stage2", "stage1")
	if rep == nil || rep.Diagnostics == nil {
		t.Fatal("no diagnostics")
	}
	d := rep.Diagnostics
	if d.Stage != "stage2" || d.Chain != 1 || d.AllocIter != 1 {
		t.Fatalf("winner = %s/%d/%d, want stage2/1/1", d.Stage, d.AllocIter, d.Chain)
	}
	if d.FinalBest != 10 {
		t.Errorf("FinalBest = %v, want 10", d.FinalBest)
	}
	if d.TotalMoves != 500 {
		t.Errorf("TotalMoves = %d, want 500", d.TotalMoves)
	}
	if d.MovesTo10Pct != 10 {
		t.Errorf("MovesTo10Pct = %d, want 10 (11 <= 10*1.1)", d.MovesTo10Pct)
	}
	if d.MovesTo5Pct != 20 {
		t.Errorf("MovesTo5Pct = %d, want 20 (10.4 <= 10*1.05)", d.MovesTo5Pct)
	}
	if d.MovesTo1Pct != 200 {
		t.Errorf("MovesTo1Pct = %d, want 200", d.MovesTo1Pct)
	}
	if d.PlateauMoves != 19 {
		t.Errorf("PlateauMoves = %d, want 200-180-1 = 19", d.PlateauMoves)
	}
	if d.Chains != 2 {
		t.Errorf("Chains = %d, want 2", d.Chains)
	}
	// Population stddev of {12, 10} is 1, mean 11.
	if got := d.ChainDispersion; math.Abs(got-1.0/11) > 1e-12 {
		t.Errorf("ChainDispersion = %v, want 1/11", got)
	}

	// Without the stage preference the cheapest series overall wins.
	if d2 := BuildConvergence(j).Diagnostics; d2.Stage != "stage1" || d2.FinalBest != 1 {
		t.Errorf("unpreferred winner = %s/%v, want stage1/1", d2.Stage, d2.FinalBest)
	}
	// Preferring a stage with no series falls back to all of them.
	if d3 := BuildConvergence(j, "nope").Diagnostics; d3.Stage != "stage1" {
		t.Errorf("fallback winner = %s, want stage1", d3.Stage)
	}
}

// TestBuildConvergenceInfeasible: a journal whose every chain stayed
// infeasible still yields a well-formed report with -1 sentinels.
func TestBuildConvergenceInfeasible(t *testing.T) {
	j := NewJournalWith(10, 100)
	s := j.Series("cocco", 0, 0)
	s.Record(Sample{Move: 0, BestCost: math.Inf(1)})
	s.Finish(Sample{Move: 50, Proposed: 50, BestCost: math.Inf(1)}, 0)
	d := BuildConvergence(j, "cocco").Diagnostics
	if d.FinalBest != -1 || d.MovesTo10Pct != -1 || d.PlateauMoves != -1 {
		t.Errorf("infeasible diagnostics = %+v, want -1 sentinels", d)
	}
	// Feasible beats infeasible whatever the order.
	j.Series("cocco", 0, 1).Finish(Sample{Move: 50, Proposed: 50, BestCost: 99}, 10)
	if d := BuildConvergence(j, "cocco").Diagnostics; d.Chain != 1 || d.FinalBest != 99 {
		t.Errorf("winner = chain %d best %v, want 1/99", d.Chain, d.FinalBest)
	}
	// Empty journal: report with no series and no diagnostics.
	if rep := BuildConvergence(NewJournal()); rep == nil || len(rep.Series) != 0 || rep.Diagnostics != nil {
		t.Errorf("empty journal report = %+v", rep)
	}
}

// TestJournalConcurrent hammers concurrent chain writes and live snapshots;
// under -race this is the journal's thread-safety proof.
func TestJournalConcurrent(t *testing.T) {
	j := NewJournalWith(1, 32)
	const G, N = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := j.Series("stage2", 0, g)
			for n := int64(0); n < N; n++ {
				s.Record(Sample{Move: n, Proposed: n, BestCost: float64(N - n)})
				s.MoveOutcome("move-tensor", n%2 == 0)
				if n%100 == 0 {
					_ = BuildConvergence(j, "stage2")
				}
			}
			s.Finish(Sample{Move: N, Proposed: N, BestCost: 1}, N-1)
		}(g)
	}
	wg.Wait()
	rep := BuildConvergence(j, "stage2")
	if len(rep.Series) != G {
		t.Fatalf("series = %d, want %d", len(rep.Series), G)
	}
	for i, cs := range rep.Series {
		if cs.Chain != i || !cs.Finished || cs.Moves != N {
			t.Errorf("series %d = chain %d finished %v moves %d", i, cs.Chain, cs.Finished, cs.Moves)
		}
	}
	if rep.Diagnostics.Chains != G {
		t.Errorf("Chains = %d, want %d", rep.Diagnostics.Chains, G)
	}
}
