package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"soma/internal/graph"
	"soma/internal/models"
	"soma/internal/testutil"
	"soma/internal/tiling"
)

// TestParseGolden pins Parse's output byte for byte: a fixed-seed walk of
// the five LFA operators over six workloads (starting from the no-fusion
// encoding at 1, 2 or 4 tiles per layer) parses every candidate and
// records one SHA-256 of the resulting schedule (or the parse error) per
// step. Any change to tiles, tensors, the DRAM Tensor Order or the on-chip
// intervals - however small - shows up as a golden diff. Regenerate with
// UPDATE_GOLDENS=1 only for an intended change of parse semantics.
func TestParseGolden(t *testing.T) {
	workloads := []struct {
		name  string
		batch int
	}{
		{"mobilenetv2", 1},
		{"resnet50", 2},
		{"randwire", 1},
		{"ires", 1},
		{"gpt2s-decode", 4},
		{"gpt2s-prefill", 1},
	}
	const steps = 600
	var b strings.Builder
	for wi, w := range workloads {
		g, err := models.Build(w.name, w.batch)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(wi + 1)))
		cur := DefaultEncoding(g, 1<<(wi%3))
		for step := 0; step < steps; step++ {
			cand, op, ok := goldenMutate(g, cur, rng)
			if !ok {
				continue
			}
			s, err := Parse(g, cand)
			if err != nil {
				fmt.Fprintf(&b, "%s %3d %-8s error: %v\n", w.name, step, op, err)
				continue
			}
			fmt.Fprintf(&b, "%s %3d %-8s %d tiles %d tensors %x\n",
				w.name, step, op, s.NumTiles(), len(s.Tensors), scheduleHash(s))
			cur = cand
		}
	}
	testutil.Golden(t, "testdata/parse.golden", []byte(b.String()))
}

// goldenMutate applies one random LFA operator to a clone of e: move a
// layer, double or halve a tiling number, add or delete a fine-grained cut,
// or toggle a DRAM cut.
func goldenMutate(g *graph.Graph, e *Encoding, rng *rand.Rand) (*Encoding, string, bool) {
	c := e.Clone()
	n := len(c.Order)
	switch rng.Intn(5) {
	case 0:
		return c, "order", c.MoveLayer(g, rng.Intn(n), rng.Intn(n))
	case 1:
		f := rng.Intn(c.NumFLGs())
		if rng.Intn(2) == 0 {
			c.Tile[f] *= 2
			return c, "tile", c.Tile[f] <= goldenMaxTiles(g, c, f)
		}
		if c.Tile[f] <= 1 {
			return c, "tile", false
		}
		c.Tile[f] /= 2
		return c, "tile", true
	case 2:
		return c, "add-flc", c.AddFLC(1 + rng.Intn(n-1))
	case 3:
		if len(c.FLCs) == 0 {
			return c, "del-flc", false
		}
		i := rng.Intn(len(c.FLCs))
		tile := c.Tile[i]
		if rng.Intn(2) == 0 {
			tile = c.Tile[i+1]
		}
		return c, "del-flc", c.RemoveFLC(i, tile)
	default:
		if len(c.FLCs) == 0 {
			return c, "dram-cut", false
		}
		i := rng.Intn(len(c.FLCs))
		c.IsDRAM[i] = !c.IsDRAM[i]
		return c, "dram-cut", true
	}
}

// goldenMaxTiles caps an FLG's tiling number at its smallest layer's element
// count (finer splits only produce empty tiles).
func goldenMaxTiles(g *graph.Graph, e *Encoding, f int) int {
	m := 1 << 30
	for _, id := range e.FLGLayers(f) {
		s := g.Layer(id).Out
		m = min(m, s.N*s.H*s.W)
	}
	return m
}

// scheduleHash digests everything Parse produces: the tile sequence, every
// tensor field with the stores it waits on, the DRAM Tensor Order and the
// on-chip intervals.
func scheduleHash(s *Schedule) []byte {
	h := sha256.New()
	put := func(vs ...int64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	region := func(r tiling.Region) {
		put(int64(r.N0), int64(r.N1), int64(r.H0), int64(r.H1), int64(r.W0), int64(r.W1))
	}
	put(int64(len(s.Tiles)))
	for _, tl := range s.Tiles {
		put(int64(tl.Seq), int64(tl.Layer), int64(tl.FLG), int64(tl.LG), int64(tl.Index))
		region(s.Region(tl.Seq))
		region(s.Own(tl.Seq))
	}
	put(int64(len(s.Tensors)))
	for _, x := range s.Tensors {
		put(int64(x.ID), int64(x.Kind), int64(x.Layer), int64(x.Source), x.Bytes,
			int64(x.FirstUse), int64(x.Release), int64(x.Producer), int64(x.OnChipHi),
			int64(x.Start), int64(x.End))
		// The store list each load carried before store windows:
		// nil (hashed as -1) when the window is empty.
		after := windowIDs(s.WaitsOn(&x))
		if after == nil {
			put(-1)
		} else {
			put(int64(len(after)))
		}
		for _, id := range after {
			put(int64(id))
		}
	}
	put(int64(len(s.Order)))
	for _, id := range s.Order {
		put(int64(id))
	}
	put(int64(len(s.OnChip)))
	for _, iv := range s.OnChip {
		put(int64(iv.Lo), int64(iv.Hi), iv.Bytes)
	}
	return h.Sum(nil)
}
