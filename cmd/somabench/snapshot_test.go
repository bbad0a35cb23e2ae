package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestCheckSnapshot: the committed point passes against itself, and a
// measurement whose incremental evaluator never resumes - every proposal a
// full re-simulation - fails, however fast its moves are.
func TestCheckSnapshot(t *testing.T) {
	const path = "../../BENCH_30.json"
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
	if err := checkSnapshot(snap, path); err != nil {
		t.Fatalf("the committed snapshot fails against itself: %v", err)
	}

	never := snap
	never.Models = append([]BenchEntry(nil), snap.Models...)
	for i := range never.Models {
		never.Models[i].ResumedFrac, never.Models[i].EventsFrac = 0, 1
	}
	if err := checkSnapshot(never, path); err == nil {
		t.Fatal("a never-resuming evaluator passes the snapshot check")
	}
}
