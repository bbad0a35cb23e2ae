package soma

import (
	"context"
	"testing"

	"soma/internal/hw"
	"soma/internal/models"
	"soma/internal/sim"
)

// portfolioParams is a trimmed fast profile: small enough that running
// several ResNet-50 portfolios stays test-suite friendly, large enough that
// all operators fire and the portfolio chains genuinely diverge.
func portfolioParams(chains, workers int) Params {
	p := FastParams()
	p.Beta1, p.Beta2 = 3, 2
	p.Stage1MaxIters, p.Stage2MaxIters = 300, 500
	p.Chains = chains
	p.Workers = workers
	return p
}

// TestPortfolioWorkerCountInvariance is the tentpole determinism guarantee:
// with a fixed seed, the best schedule's canonical key (its complete
// scheduling decision: all six attributes) is identical no matter how many
// workers execute the portfolio (ResNet-50, edge platform).
func TestPortfolioWorkerCountInvariance(t *testing.T) {
	g := models.ResNet50(1)
	var want string
	for _, workers := range []int{1, 8} {
		res, err := New(g, hw.Edge(), EDP(), portfolioParams(4, workers)).Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		key := res.Schedule.CanonicalKey()
		if want == "" {
			want = key
			continue
		}
		if key != want {
			t.Fatalf("workers=8 produced a different schedule (%d vs %d key bytes)",
				len(want), len(key))
		}
	}
}

// TestPortfolioNeverWorseThanSerial: chain 0 of a portfolio stage runs the
// exact serial chain, so within one stage the portfolio's best cost can only
// improve on the serial result. (The guarantee is per stage: across a full
// Run a different stage-1 winner changes what stage 2 and the Buffer
// Allocator see, so end-to-end costs are not comparable.)
func TestPortfolioNeverWorseThanSerial(t *testing.T) {
	g := testNet(t)
	serial := New(g, hw.Edge(), EDP(), portfolioParams(1, 1))
	_, s1Serial, err := serial.RunStage1(context.Background(), serial.Cfg.GBufBytes, serial.Par.Seed)
	if err != nil {
		t.Fatal(err)
	}
	pf := New(g, hw.Edge(), EDP(), portfolioParams(6, 2))
	_, s1Pf, err := pf.RunStage1(context.Background(), pf.Cfg.GBufBytes, pf.Par.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if s1Pf.Cost > s1Serial.Cost {
		t.Fatalf("stage-1 portfolio regressed: %g > serial %g", s1Pf.Cost, s1Serial.Cost)
	}
	if st := s1Pf.Stats; st.Chains != 6 || len(st.PerChain) != 6 {
		t.Fatalf("stage-1 portfolio stats wrong: %+v", st)
	}

	res, err := pf.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stage2.Stats; st.Chains != 6 || len(st.PerChain) != 6 {
		t.Fatalf("stage-2 portfolio stats wrong: %+v", st)
	}
}

// TestRunReportsCacheHits: a standard run must surface non-zero cache
// counters, and the cached winner metrics must equal a fresh evaluation.
func TestRunReportsCacheHits(t *testing.T) {
	g := testNet(t)
	e := New(g, hw.Edge(), EDP(), portfolioParams(2, 1))
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Hits > 0 means the reported hit rate is > 0 (report.HitRate formats
	// these same counters for the CLIs).
	if res.Cache.Hits == 0 || res.Cache.Misses == 0 {
		t.Fatalf("expected live cache counters, got %+v", res.Cache)
	}
	fresh, err := sim.Evaluate(res.Schedule, e.CS, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Stage2.Metrics
	if fresh.LatencyNS != m.LatencyNS || fresh.EnergyPJ != m.EnergyPJ {
		t.Fatalf("cached winner metrics diverge from fresh evaluation: %g/%g vs %g/%g",
			m.LatencyNS, m.EnergyPJ, fresh.LatencyNS, fresh.EnergyPJ)
	}
}

// TestPortfolioMatchesSerialDefault: Chains=0 (the default) must behave
// exactly like the pre-portfolio serial search for the same seed.
func TestPortfolioMatchesSerialDefault(t *testing.T) {
	g := testNet(t)
	a, err := New(g, hw.Edge(), EDP(), FastParams()).Run()
	if err != nil {
		t.Fatal(err)
	}
	p := FastParams()
	p.Chains, p.Workers = 1, 1
	b, err := New(g, hw.Edge(), EDP(), p).Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost {
		t.Fatalf("explicit serial portfolio diverged from default: %g vs %g", a.Cost, b.Cost)
	}
}
