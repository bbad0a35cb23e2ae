package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"soma/internal/obs"
)

// TestJournalDoesNotPerturbResult mirrors TestTelemetryDoesNotPerturbResult
// for the convergence journal: a run with Request.Journal attached must be
// byte-identical to the bare run once the (intentionally opt-in)
// Convergence section is stripped - and the journal must actually have
// recorded the search.
func TestJournalDoesNotPerturbResult(t *testing.T) {
	for _, backend := range []string{"soma", "cocco"} {
		t.Run(backend, func(t *testing.T) {
			req := Request{Backend: backend, Model: "mobilenetv2", Platform: "edge",
				Params: fastPar(11)}
			plain, err := Run(context.Background(), req, nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Journal = obs.NewJournal()
			journaled, err := Run(context.Background(), req, nil)
			if err != nil {
				t.Fatal(err)
			}
			conv := journaled.Convergence
			if conv == nil || len(conv.Series) == 0 || conv.Diagnostics == nil {
				t.Fatal("journaled run carries no Convergence section")
			}
			journaled.Convergence = nil
			var a, b bytes.Buffer
			if err := plain.WriteJSON(&a); err != nil {
				t.Fatal(err)
			}
			if err := journaled.WriteJSON(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Error("convergence journaling changed the result payload")
			}

			d := conv.Diagnostics
			wantStage := ConvergenceStages(backend)[0]
			if d.Stage != wantStage {
				t.Errorf("diagnostics winner stage = %q, want %q", d.Stage, wantStage)
			}
			if d.FinalBest != journaled.Cost {
				t.Errorf("diagnostics FinalBest = %g, payload cost %g", d.FinalBest, journaled.Cost)
			}
			if d.TotalMoves <= 0 || d.MovesTo10Pct < 0 {
				t.Errorf("diagnostics not populated: %+v", d)
			}
			for _, cs := range conv.Series {
				if !cs.Finished || len(cs.Samples) == 0 {
					t.Errorf("series %s/%d/%d unfinished or empty",
						cs.Stage, cs.AllocIter, cs.Chain)
				}
			}
		})
	}
}

// TestJournalDeterministicForSeed: two serial journaled runs with the same
// seed produce identical Convergence sections (the CLI golden's contract).
func TestJournalDeterministicForSeed(t *testing.T) {
	run := func() *obs.ConvergenceReport {
		req := Request{Model: "mobilenetv2", Platform: "edge", Params: fastPar(7),
			Journal: obs.NewJournal()}
		res, err := Run(context.Background(), req, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Convergence
	}
	a, b := marshalConv(t, run()), marshalConv(t, run())
	if !bytes.Equal(a, b) {
		t.Error("fixed-seed convergence reports differ")
	}
}

// TestCompareAttachesPerBackendJournals: one request run over both backends,
// each run with its own fresh journal (as a multi-backend dse grid runs its
// points), gives every result its own backend's diagnostics, and no journal
// records another backend's search.
func TestCompareAttachesPerBackendJournals(t *testing.T) {
	req := Request{Model: "mobilenetv2", Platform: "edge", Params: fastPar(3)}
	for _, backend := range []string{"soma", "cocco"} {
		r := req
		r.Backend = backend
		r.Journal = obs.NewJournal()
		res, err := Run(context.Background(), r, nil)
		if err != nil {
			t.Fatal(err)
		}
		conv := res.Convergence
		if conv == nil || conv.Diagnostics == nil {
			t.Fatalf("%s result carries no convergence diagnostics", backend)
		}
		if want := ConvergenceStages(backend)[0]; conv.Diagnostics.Stage != want {
			t.Errorf("%s winner stage = %q, want %q", backend, conv.Diagnostics.Stage, want)
		}
		own := map[string]bool{}
		for _, stage := range ConvergenceStages(backend) {
			own[stage] = true
		}
		for _, cs := range obs.BuildConvergence(r.Journal).Series {
			if !own[cs.Stage] {
				t.Errorf("%s journal recorded a %s series", backend, cs.Stage)
			}
		}
	}
}

func marshalConv(t *testing.T, rep *obs.ConvergenceReport) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSAMetricsReconcileWithJournal: each stage's soma_sa_* move counters
// equal the sum of the convergence journal's final per-chain samples, over a
// portfolio solve that runs several allocator iterations. The counters and
// the journal both report the annealer's own tallies, so they must agree
// exactly for any chain and worker count.
func TestSAMetricsReconcileWithJournal(t *testing.T) {
	par := fastPar(5)
	par.Chains, par.Workers = 3, 2
	o := &obs.Obs{Reg: obs.NewRegistry()}
	req := Request{Model: "mobilenetv2", Platform: "edge", Params: par,
		Obs: o, Journal: obs.NewJournal()}
	res, err := Run(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Search.AllocIters < 2 {
		t.Fatalf("solve ran %d allocator iterations, want >= 2", res.Search.AllocIters)
	}
	type tally struct{ proposed, accepted, rejected, improved int64 }
	want := map[string]*tally{}
	chains := map[string]int{}
	for _, cs := range res.Convergence.Series {
		last := cs.Samples[len(cs.Samples)-1]
		if want[cs.Stage] == nil {
			want[cs.Stage] = &tally{}
		}
		w := want[cs.Stage]
		w.proposed += last.Proposed
		w.accepted += last.Accepted
		w.rejected += last.Rejected
		w.improved += last.Improved
		chains[cs.Stage]++
	}
	counter := func(name, stage string) int64 {
		for _, m := range o.Reg.Snapshot() {
			if m.Name != name {
				continue
			}
			for _, se := range m.Series {
				if se.Labels == `{stage="`+stage+`"}` {
					return int64(se.Value)
				}
			}
		}
		t.Fatalf("no %s series for stage %s", name, stage)
		return 0
	}
	for _, stage := range []string{"stage1", "stage2"} {
		w := want[stage]
		if w == nil || chains[stage] < 2*par.Chains {
			t.Fatalf("%s: journal holds %d series, want at least %d", stage, chains[stage], 2*par.Chains)
		}
		got := tally{
			proposed: counter("soma_sa_moves_proposed_total", stage),
			accepted: counter("soma_sa_moves_accepted_total", stage),
			rejected: counter("soma_sa_moves_rejected_total", stage),
			improved: counter("soma_sa_improvements_total", stage),
		}
		if got != *w {
			t.Errorf("%s: counters %+v, journal sums %+v", stage, got, *w)
		}
	}
}
