package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"soma/internal/coresched"
	"soma/internal/graph"
	"soma/internal/hw"
	"soma/internal/models"
)

// parseOutcome is a parse result as the golden test records it: the
// schedule hash, or the error text.
func parseOutcome(s *Schedule, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%x", scheduleHash(s))
}

// arenaWalk is a graph an arena test walks from a no-fusion start.
type arenaWalk struct {
	name  string
	g     *graph.Graph
	tiles int
}

// arenaWalks lists part of the golden set plus GPT-2 Small prefill cut to
// two blocks, whose schedules run to thousands of tiles.
func arenaWalks(t *testing.T) []arenaWalk {
	cut := models.GPT2Small()
	cut.Layers = 2
	walks := []arenaWalk{{"gpt2s-prefill-2blk", models.GPT2Prefill(cut, 1), 16}}
	for _, name := range []string{"mobilenetv2", "randwire", "ires", "gpt2s-decode"} {
		g, err := models.Build(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		walks = append(walks, arenaWalk{name, g, 4})
	}
	return walks
}

// TestArenaParseMatchesParse: on random LFA walks, a parse into one reused
// arena - with and without an FLG memo, right after a much larger schedule
// or a different graph - hashes exactly like a fresh Parse, and a memoized
// parse's tile costs are the core-array scheduler's, tile by tile.
func TestArenaParseMatchesParse(t *testing.T) {
	var a Arena // shared by every graph
	for wi, w := range arenaWalks(t) {
		t.Run(w.name, func(t *testing.T) {
			cs := coresched.New(hw.Edge())
			memo := NewFLGMemo(w.g, cs, DefaultFLGMemoBytes)
			big := DefaultEncoding(w.g, 64)
			rng := rand.New(rand.NewSource(int64(wi + 1)))
			cur := DefaultEncoding(w.g, w.tiles)
			for step := 0; step < 200; step++ {
				cand, _, ok := goldenMutate(w.g, cur, rng)
				if !ok {
					continue
				}
				if step%7 == 0 {
					// Shrink the next parse's schedule from a large one.
					if _, err := a.Parse(w.g, big, memo); err != nil {
						t.Fatal(err)
					}
				}
				want := parseOutcome(Parse(w.g, cand))
				for _, m := range []*FLGMemo{nil, memo} {
					s, err := a.Parse(w.g, cand, m)
					if got := parseOutcome(s, err); got != want {
						t.Fatalf("step %d (memo %v): arena parse %s, Parse %s", step, m != nil, got, want)
					}
					if err == nil && m != nil {
						checkMemoCosts(t, &a, m, s, cs)
					}
				}
				if want[0] != 'e' {
					cur = cand
				}
			}
		})
	}
}

// checkMemoCosts lowers s's encoding again with memo and compares each
// walked tile's memoized costs with the scheduler's cost of that tile of s.
func checkMemoCosts(t *testing.T, a *Arena, memo *FLGMemo, s *Schedule, cs *coresched.Scheduler) {
	t.Helper()
	type cost struct{ dur, energy float64 }
	want := make([]cost, s.NumTiles())
	for i := range want {
		r := cs.Evaluate(s.TileRequest(i))
		want[i] = cost{r.TimeNS, r.EnergyPJ}
	}
	if err := a.Lower(s.G, s.Enc, memo); err != nil {
		t.Fatal(err)
	}
	walked := 0
	for st := a.Next(); st != nil; st = a.Next() {
		if w := want[st.Tile.Seq]; st.Dur != w.dur || st.Energy != w.energy {
			t.Fatalf("tile %d: memo cost (%v ns, %v pJ), scheduler (%v ns, %v pJ)",
				st.Tile.Seq, st.Dur, st.Energy, w.dur, w.energy)
		}
		walked++
	}
	if walked != len(want) {
		t.Fatalf("walked %d tiles, schedule has %d", walked, len(want))
	}
}

// TestFLGMemoBounded: a memo whose byte budget is far below the walk's
// working set evicts generations, never holds more than its budget, and
// still parses exactly like Parse.
func TestFLGMemoBounded(t *testing.T) {
	g, err := models.Build("resnet50", 2)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 64 << 10
	cs := coresched.New(hw.Edge())
	memo := NewFLGMemo(g, cs, budget)
	var a Arena
	rng := rand.New(rand.NewSource(5))
	cur := DefaultEncoding(g, 2)
	for step := 0; step < 400; step++ {
		cand, _, ok := goldenMutate(g, cur, rng)
		if !ok {
			continue
		}
		want := parseOutcome(Parse(g, cand))
		s, err := a.Parse(g, cand, memo)
		if got := parseOutcome(s, err); got != want {
			t.Fatalf("step %d: memoized parse %s, Parse %s", step, got, want)
		}
		if err == nil {
			checkMemoCosts(t, &a, memo, s, cs)
			cur = cand
		}
		if st := memo.Stats(); st.Bytes > budget {
			t.Fatalf("step %d: memo holds %d bytes, budget %d", step, st.Bytes, budget)
		}
	}
	st := memo.Stats()
	t.Logf("%d entries, %d bytes, %d evictions", st.Entries, st.Bytes, st.Evictions)
	if st.Evictions == 0 {
		t.Fatal("the walk never filled the memo; the budget is not exercised")
	}
}

// TestArenaParseAllocs: with a warm arena and memo, a parse allocates only
// in Encoding.Check, however many FLGs and tiles the encoding has.
func TestArenaParseAllocs(t *testing.T) {
	g, err := models.Build("ires", 1)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewFLGMemo(g, coresched.New(hw.Edge()), DefaultFLGMemoBytes)
	var a Arena
	for _, tiles := range []int{1, 4} {
		e := DefaultEncoding(g, tiles)
		if _, err := a.Parse(g, e, memo); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() { a.Parse(g, e, memo) }); n > 1 {
			t.Errorf("%d tiles per layer: %.0f allocs per warm parse, want at most 1", tiles, n)
		}
	}
}

// TestFLGMemoRejectsOtherGraph: a memo's plans are only valid for its own
// graph.
func TestFLGMemoRejectsOtherGraph(t *testing.T) {
	g1, _ := models.Build("ires", 1)
	g2, _ := models.Build("ires", 1)
	defer func() {
		if v := recover(); !strings.Contains(fmt.Sprint(v), "another graph") {
			t.Fatalf("recovered %v", v)
		}
	}()
	var a Arena
	a.Parse(g2, DefaultEncoding(g2, 1), NewFLGMemo(g1, coresched.New(hw.Edge()), DefaultFLGMemoBytes))
}
