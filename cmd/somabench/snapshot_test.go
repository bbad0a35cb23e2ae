package main

import (
	"encoding/json"
	"os"
	"testing"
)

// readSnapshot loads a committed snapshot.
func readSnapshot(t *testing.T, path string) BenchSnapshot {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap BenchSnapshot
	if err := json.Unmarshal(buf, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Models) == 0 {
		t.Fatalf("%s holds no models", path)
	}
	return snap
}

// TestCheckSnapshot: the committed point passes against itself; a
// measurement whose incremental evaluator never resumes - every proposal a
// full re-simulation - fails, however fast its moves are, and so do one that
// re-simulates more events per walk step, one whose stage-1 misses fold
// every tile, and ones whose stage-1 lowerings look up more FLG plans per
// miss or bookkeep every layer. A column the committed point lacks is not
// gated: the older BENCH_31.json has no stage-1 lookup or bookkeeping
// columns, and BENCH_30.json no per-step or stage-1 columns at all.
func TestCheckSnapshot(t *testing.T) {
	const path = "../../BENCH_32.json"
	snap := readSnapshot(t, path)
	if err := checkSnapshot(snap, path); err != nil {
		t.Fatalf("the committed snapshot fails against itself: %v", err)
	}
	for _, e := range snap.Models {
		if e.Stage1FoldedFrac <= 0 || e.Stage1FoldedFrac >= 1 {
			t.Errorf("%s: committed stage-1 folded-tile fraction %v, want inside (0, 1)", e.Model, e.Stage1FoldedFrac)
		}
		if e.Stage1LoweredFrac <= 0 || e.Stage1LoweredFrac >= 1 {
			t.Errorf("%s: committed stage-1 bookkept-layer fraction %v, want inside (0, 1)", e.Model, e.Stage1LoweredFrac)
		}
		if e.Stage1LookupsPerMiss <= 0 {
			t.Errorf("%s: committed stage-1 lookups per miss %v, want above 0", e.Model, e.Stage1LookupsPerMiss)
		}
	}

	for _, c := range []struct {
		name   string
		change func(*BenchEntry)
		// older is the newest committed snapshot that lacks the column.
		older string
	}{
		{"never resumes", func(e *BenchEntry) { e.ResumedFrac, e.EventsFrac = 0, 1 }, ""},
		{"more events per step", func(e *BenchEntry) { e.EventsPerStep *= 1.5 }, "../../BENCH_30.json"},
		{"folds every stage-1 tile", func(e *BenchEntry) { e.Stage1FoldedFrac = 1 }, "../../BENCH_30.json"},
		{"allocates per stage-1 miss", func(e *BenchEntry) { e.Stage1AllocsPerMiss = 2*e.Stage1AllocsPerMiss + 2 }, "../../BENCH_30.json"},
		{"looks up more FLG plans per stage-1 miss", func(e *BenchEntry) { e.Stage1LookupsPerMiss *= 1.5 }, "../../BENCH_31.json"},
		{"bookkeeps every layer of a stage-1 miss", func(e *BenchEntry) { e.Stage1LoweredFrac = 1 }, "../../BENCH_31.json"},
	} {
		bad := snap
		bad.Models = append([]BenchEntry(nil), snap.Models...)
		for i := range bad.Models {
			c.change(&bad.Models[i])
		}
		if err := checkSnapshot(bad, path); err == nil {
			t.Errorf("a measurement that %s passes the snapshot check", c.name)
		}
		if c.older != "" {
			if err := checkSnapshot(bad, c.older); err != nil {
				t.Errorf("a measurement that %s fails against %s, which lacks the column: %v", c.name, c.older, err)
			}
		}
	}
}
