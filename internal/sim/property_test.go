package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/graph"
	"soma/internal/hw"
)

// randomEncoding derives a legal encoding from random bytes: random legal
// layer moves, random cuts, random tilings.
func randomEncoding(g *graph.Graph, seed int64) *core.Encoding {
	rng := rand.New(rand.NewSource(seed))
	e := core.DefaultEncoding(g, 1)
	n := len(e.Order)
	for i := 0; i < 3*n; i++ {
		switch rng.Intn(4) {
		case 0:
			e.MoveLayer(g, rng.Intn(n), rng.Intn(n))
		case 1:
			if len(e.FLCs) > 0 {
				e.RemoveFLC(rng.Intn(len(e.FLCs)), 1+rng.Intn(4))
			}
		case 2:
			e.AddFLC(1 + rng.Intn(n-1))
		case 3:
			if len(e.FLCs) > 0 {
				i := rng.Intn(len(e.FLCs))
				e.IsDRAM[i] = !e.IsDRAM[i]
			}
		}
	}
	for i := range e.Tile {
		e.Tile[i] = 1 << rng.Intn(4)
	}
	return e
}

// TestRandomEncodingsInvariants: every legal random encoding of a CNN parses
// and simulates without deadlock, and the metrics satisfy the fundamental
// bounds.
func TestRandomEncodingsInvariants(t *testing.T) {
	g := smallNet(t)
	cs := coresched.New(hw.Edge())
	f := func(seedRaw uint16) bool {
		e := randomEncoding(g, int64(seedRaw))
		if err := e.Check(g); err != nil {
			return false // randomEncoding must keep legality
		}
		s, err := core.Parse(g, e)
		if err != nil {
			return true // e.g. tiling rejected: fine, just skip
		}
		m, err := Evaluate(s, cs, Options{})
		if err != nil {
			return false // parser-produced DLSA must never deadlock
		}
		if m.LatencyNS < m.ComputeBusyNS || m.LatencyNS < m.DRAMBusyNS {
			return false
		}
		if m.Utilization > m.TheoreticalMaxUtil+1e-9 {
			return false
		}
		if m.EnergyPJ <= 0 || m.PeakBufferBytes < 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomEncodingsEnergyDecomposition: DRAM energy tracks DRAM bytes
// exactly for any encoding.
func TestRandomEncodingsEnergyDecomposition(t *testing.T) {
	g := smallNet(t)
	cfg := hw.Edge()
	cs := coresched.New(cfg)
	en := cfg.Energy
	f := func(seedRaw uint16) bool {
		e := randomEncoding(g, int64(seedRaw)+7777)
		s, err := core.Parse(g, e)
		if err != nil {
			return true
		}
		m, err := Evaluate(s, cs, Options{})
		if err != nil {
			return false
		}
		want := float64(m.TotalDRAMBytes) * (en.DRAMPerByte + en.GBufPerByte)
		diff := m.DRAMEnergyPJ - want
		return diff < 1e-6 && diff > -1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFusionNeverIncreasesDRAMBytes: removing a DRAM cut (merging two LGs)
// can only reduce or keep the DRAM traffic of the parsed schedule.
func TestFusionNeverIncreasesDRAMBytes(t *testing.T) {
	g := smallNet(t)
	f := func(seedRaw uint16) bool {
		e := randomEncoding(g, int64(seedRaw)+31)
		s, err := core.Parse(g, e)
		if err != nil {
			return true
		}
		// Find a DRAM cut to demote to a plain FLC.
		demoted := e.Clone()
		found := false
		for i := range demoted.IsDRAM {
			if demoted.IsDRAM[i] {
				demoted.IsDRAM[i] = false
				found = true
				break
			}
		}
		if !found {
			return true
		}
		s2, err := core.Parse(g, demoted)
		if err != nil {
			return true
		}
		return s2.TotalDRAMBytes() <= s.TotalDRAMBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPrecomputedTileCostsMatchInline: passing TileCosts must not change any
// metric.
func TestPrecomputedTileCostsMatchInline(t *testing.T) {
	g := smallNet(t)
	s, err := core.Parse(g, core.DefaultEncoding(g, 2))
	if err != nil {
		t.Fatal(err)
	}
	cs := coresched.New(hw.Edge())
	inline, err := Evaluate(s, cs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tc := PrecomputeTileCosts(s, cs)
	cached, err := Evaluate(s, cs, Options{TileCosts: tc})
	if err != nil {
		t.Fatal(err)
	}
	if inline.LatencyNS != cached.LatencyNS || inline.EnergyPJ != cached.EnergyPJ {
		t.Fatalf("cached evaluation diverged: %v vs %v", inline, cached)
	}
	// Mismatched cache length is rejected.
	bad := &TileCosts{Dur: make([]float64, 1)}
	if _, err := Evaluate(s, cs, Options{TileCosts: bad}); err == nil {
		t.Fatal("mismatched tile-cost cache accepted")
	}
}
