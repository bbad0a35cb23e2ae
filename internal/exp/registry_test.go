package exp

import (
	"sort"
	"testing"

	"soma/internal/models"
)

// TestRegistryListingsSorted: every registry listing the scenario subsystem
// references is deterministically sorted, so specs stay stable across runs.
func TestRegistryListingsSorted(t *testing.T) {
	cat := Registry()
	if !sort.StringsAreSorted(cat.Models) || len(cat.Models) == 0 {
		t.Fatalf("catalog models not sorted: %v", cat.Models)
	}
	if !sort.StringsAreSorted(cat.Platforms) || len(cat.Platforms) == 0 {
		t.Fatalf("catalog platforms not sorted: %v", cat.Platforms)
	}
	if !sort.StringsAreSorted(cat.Scenarios) || len(cat.Scenarios) < 3 {
		t.Fatalf("catalog scenarios not sorted: %v", cat.Scenarios)
	}
	for i := 0; i < 3; i++ {
		again := Registry()
		if len(again.Models) != len(cat.Models) || len(again.Scenarios) != len(cat.Scenarios) {
			t.Fatal("catalog not deterministic")
		}
	}
	known := make(map[string]bool, len(cat.Models))
	for _, m := range models.Names() {
		known[m] = true
	}
	for _, pf := range cat.Platforms {
		for _, w := range Workloads(pf) {
			if !known[w] {
				t.Fatalf("Workloads(%s) lists %q, absent from the models registry", pf, w)
			}
		}
	}
}
