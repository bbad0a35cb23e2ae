package exp

import (
	"context"
	"strings"
	"testing"

	"soma/internal/dse"
	"soma/internal/soma"
)

func TestFrontierConsistent(t *testing.T) {
	good := []ObjectivePoint{
		{N: 0, M: 1, LatencyMS: 1.0, EnergyMJ: 0.9},
		{N: 1, M: 0, LatencyMS: 1.3, EnergyMJ: 0.7},
		{N: 1, M: 1, LatencyMS: 1.1, EnergyMJ: 0.8},
	}
	if !FrontierConsistent(good, 0.01) {
		t.Fatal("consistent frontier rejected")
	}
	bad := []ObjectivePoint{
		{N: 0, M: 1, LatencyMS: 2.0, EnergyMJ: 0.9}, // latency-only slower!
		{N: 1, M: 0, LatencyMS: 1.0, EnergyMJ: 0.7},
	}
	if FrontierConsistent(bad, 0.01) {
		t.Fatal("inconsistent frontier accepted")
	}
	// Missing corners are vacuously consistent.
	if !FrontierConsistent(bad[:1], 0.01) {
		t.Fatal("partial sweep must be vacuously consistent")
	}
}

func TestObjectiveSweepSmall(t *testing.T) {
	c := Case{Platform: "edge", Workload: "resnet50", Batch: 1}
	pts := ObjectiveSweep(context.Background(), c, dse.Search{Profile: "fast"}, 1, []soma.Objective{
		{N: 0, M: 1}, {N: 1, M: 0}, {N: 1, M: 1},
	})
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Err != nil {
			t.Fatalf("(%g,%g): %v", p.N, p.M, p.Err)
		}
		if p.LatencyMS <= 0 || p.EnergyMJ <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
	}
	// Generous tolerance: the fast profile is noisy, but the latency-only
	// objective should not be grossly slower than the energy-only one.
	if !FrontierConsistent(pts, 0.5) {
		t.Fatalf("frontier wildly inconsistent: %+v", pts)
	}
}

func TestSeedSweep(t *testing.T) {
	c := Case{Platform: "edge", Workload: "resnet50", Batch: 1}
	st, err := SeedSweep(context.Background(), c, dse.Search{Profile: "fast"}, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Seeds != 3 || st.MinMS <= 0 || st.MaxMS < st.MinMS || st.MedMS < st.MinMS {
		t.Fatalf("stats = %+v", st)
	}
	// Seed noise is real but bounded: the search should land within 2x.
	if st.SpreadPct > 1.0 {
		t.Fatalf("seed spread %.0f%% too large", st.AllWithinPercent)
	}
	if !strings.Contains(st.String(), "seeds") {
		t.Fatalf("String = %q", st.String())
	}
	if _, err := SeedSweep(context.Background(), Case{Platform: "bad"}, dse.Search{Profile: "fast"}, []int64{1}); err == nil {
		t.Fatal("bad platform accepted")
	}
}
