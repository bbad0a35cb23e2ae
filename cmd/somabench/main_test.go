package main

import (
	"testing"

	"soma/internal/exp"
	"soma/internal/soma"
)

func TestParseBatches(t *testing.T) {
	if got, err := parseBatches(""); err != nil || len(got) != len(exp.Batches) {
		t.Fatalf("default batches = %v, %v", got, err)
	}
	if got, err := parseBatches("1, 8,64"); err != nil || len(got) != 3 || got[1] != 8 {
		t.Fatalf("parsed = %v, %v", got, err)
	}
	// Malformed entries are rejected instead of truncated or dropped.
	for _, bad := range []string{"junk,-2", "1e2", "16.5", "0", "4,", " "} {
		if got, err := parseBatches(bad); err == nil {
			t.Errorf("parseBatches(%q) = %v, want an error", bad, got)
		}
	}
}

// TestParams: every profile -profile names resolves, and an unknown name is
// an error.
func TestParams(t *testing.T) {
	for _, p := range []string{"fast", "default", "paper"} {
		par, err := soma.ProfileParams(p)
		if err != nil || par.Beta1 <= 0 {
			t.Fatalf("profile %s: %+v %v", p, par, err)
		}
	}
	if _, err := soma.ProfileParams("turbo"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestMaxf(t *testing.T) {
	if maxf(1, 2) != 2 || maxf(3, 2) != 3 {
		t.Fatal("maxf broken")
	}
}

func TestCountAxisHuggers(t *testing.T) {
	pts := []exp.ScatterPoint{
		{NormOps: 0.01, NormDRAM: 0.9},
		{NormOps: 0.5, NormDRAM: 0.5},
		{NormOps: 0.9, NormDRAM: 0.01},
	}
	if countAxisHuggers(pts) != 2 {
		t.Fatalf("huggers = %d", countAxisHuggers(pts))
	}
}
