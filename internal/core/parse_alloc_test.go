package core

import (
	"testing"

	"soma/internal/models"
)

// TestParseAllocs bounds Parse's allocations: they scale with the number of
// fusion groups, not with the tile count, because the stage-1 annealer
// parses every cache-missing candidate.
func TestParseAllocs(t *testing.T) {
	g, err := models.Build("ires", 1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(minTile int) (float64, int) {
		e := DefaultEncoding(g, minTile)
		if _, err := Parse(g, e); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { Parse(g, e) }), e.NumFLGs()
	}
	one, flgs := allocs(1)
	four, _ := allocs(4)
	t.Logf("ires, %d FLGs: %.0f allocs/parse at 1 tile per layer, %.0f at 4", flgs, one, four)
	if four > one {
		t.Errorf("allocations grow with tile count: %.0f at 4 tiles > %.0f at 1", four, one)
	}
	if limit := float64(6*flgs + 64); one > limit || four > limit {
		t.Errorf("allocs/parse %.0f (1 tile), %.0f (4 tiles) exceed 6*FLGs+64 = %.0f", one, four, limit)
	}
}
