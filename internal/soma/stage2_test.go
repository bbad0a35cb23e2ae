package soma

import (
	"testing"

	"soma/internal/core"
	"soma/internal/hw"
	"soma/internal/sim"
)

// TestStage2KeyMatchesCacheKey: the key stage 2 builds in its reused buffer
// equals the key Cache.Evaluate derives from the scoped CanonicalKey, after
// every move of a random stage-2 walk with accepts and rejects.
func TestStage2KeyMatchesCacheKey(t *testing.T) {
	g := testNet(t)
	e := New(g, hw.Edge(), EDP(), FastParams())
	e.Scope = "scope\x00"
	s, err := core.Parse(g, core.DefaultEncoding(g, 2))
	if err != nil {
		t.Fatal(err)
	}
	ms := newStage2Moves(e, s, newSizePicker(s), sim.PrecomputeTileCosts(s, e.CS), nil)
	check := func(step int) {
		t.Helper()
		want := sim.Key(e.Scope+s.CanonicalKey(), e.Cfg.GBufBytes)
		if got := ms.key(); got != want {
			t.Fatalf("step %d: key %x, want %x", step, got, want)
		}
	}
	ms.InitCost()
	check(0)
	rng := newRand(3)
	for step := 1; step <= 300; step++ {
		if _, ok := ms.Propose(rng); !ok {
			continue
		}
		check(step)
		if rng.Intn(2) == 0 {
			ms.Accept()
		} else {
			ms.Reject()
		}
		check(step)
	}
}
