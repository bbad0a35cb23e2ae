package isa

import (
	"bytes"
	"math/rand"
	"testing"

	"soma/internal/core"
	"soma/internal/models"
	"soma/internal/testutil"
)

// TestGenerateGolden pins the IR text of a DLSA-explored schedule: the
// mobilenetv2 double-buffer parse after a fixed-seed random walk of order
// moves and Living Duration jitters. A move that deadlocks the schedule is
// undone. The walk leaves tensors out of their parse order, loads
// prefetched at varied Starts and stores ending at other tiles before the
// last, so the golden covers every span, gate row and dependency rule
// Generate writes.
func TestGenerateGolden(t *testing.T) {
	g, err := models.Build("mobilenetv2", 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Parse(g, core.DefaultEncoding(g, 2))
	if err != nil {
		t.Fatal(err)
	}
	const gbuf = 1 << 40 // Generate then fails only on a deadlock
	rng := rand.New(rand.NewSource(7))
	var orderMoves, jitters int
	for k := 0; k < 400; k++ {
		id := rng.Intn(len(s.Tensors))
		if rng.Intn(2) == 0 {
			from := 0
			for s.Order[from] != id {
				from++
			}
			to := min(max(from+rng.Intn(17)-8, 0), len(s.Order)-1)
			if !s.MoveTensor(from, to) {
				continue
			}
			if _, err := Generate(s, gbuf); err != nil {
				s.MoveTensor(to, from)
				continue
			}
			orderMoves++
			continue
		}
		old := s.Tensors[id].Living()
		delta := 1 + rng.Intn(8)
		if rng.Intn(2) == 0 {
			delta = -delta
		}
		if !s.SetLiving(id, old+delta) {
			continue
		}
		if _, err := Generate(s, gbuf); err != nil {
			s.SetLiving(id, old)
			continue
		}
		jitters++
	}
	n := s.NumTiles()
	var prefetched, moved int
	for i := range s.Tensors {
		tn := &s.Tensors[i]
		switch {
		case tn.Kind.IsLoad() && tn.Start > 0 && tn.Start < tn.FirstUse-1:
			prefetched++
		case !tn.Kind.IsLoad() && tn.End < n && tn.End != tn.Producer+2:
			moved++
		}
	}
	if orderMoves == 0 || jitters == 0 || prefetched == 0 || moved == 0 {
		t.Fatalf("walk too narrow: %d order moves, %d jitters, %d early prefetches, %d moved stores",
			orderMoves, jitters, prefetched, moved)
	}
	p, err := Generate(s, gbuf)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	testutil.Golden(t, "testdata/mobilenetv2-walk.ir.golden", buf.Bytes())
}
