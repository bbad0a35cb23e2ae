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
