package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"soma/internal/coresched"
	"soma/internal/graph"
	"soma/internal/hw"
)

// keptWalk lowers LFA candidates in two arenas over one memo: kept, which
// keeps what the walk accepts and lowers each candidate from it, and cold,
// which never keeps and so lowers every candidate from scratch.
type keptWalk struct {
	t          *testing.T
	g          *graph.Graph
	memo       *FLGMemo
	kept, cold Arena
	// base is the encoding kept keeps (nil before the first Keep), cur
	// the walk's state.
	base, cur *Encoding
}

// lower lowers cand in both arenas and checks that they agree: the same
// error, or the same tile count, the same steps from the first FLG of the
// LG the kept lowering resumes at (Seek'd there), every Tile and Tensor
// field but ID compared, and the same on-chip intervals. It also checks the
// kept lowering's stats against the encodings, and returns them with
// whether cand lowers.
func (w *keptWalk) lower(cand *Encoding, what string) (LowerStats, bool) {
	t := w.t
	t.Helper()
	kerr := w.kept.Lower(w.g, cand, w.memo)
	cerr := w.cold.Lower(w.g, cand, w.memo)
	st := w.kept.LowerStats()
	if fmt.Sprint(kerr) != fmt.Sprint(cerr) {
		t.Fatalf("%s: kept lowering error %v, cold %v", what, kerr, cerr)
	}
	if kerr != nil {
		return st, false
	}
	if n, want := w.kept.NumTiles(), w.cold.NumTiles(); n != want {
		t.Fatalf("%s: kept lowering has %d tiles, cold %d", what, n, want)
	}
	if w.base == nil && (st.LG != 0 || st.Bookkept != len(cand.Order) || st.Lookups != cand.NumFLGs()) {
		t.Fatalf("%s: a lowering with nothing kept reports %+v", what, st)
	}
	// The resume FLG: the first FLG of LG st.LG, where its layers begin.
	f0, lg := 0, 0
	for f := 1; f < cand.NumFLGs() && lg < st.LG; f++ {
		if cand.IsDRAM[f-1] {
			f0, lg = f, lg+1
		}
	}
	if lg != st.LG {
		t.Fatalf("%s: resumes at LG %d of %d", what, st.LG, cand.NumLGs())
	}
	if lo, _ := cand.FLGBounds(f0); st.Bookkept != len(cand.Order)-lo && st.Bookkept != 0 {
		t.Fatalf("%s: bookkept %d layers, LG %d begins at order position %d of %d",
			what, st.Bookkept, st.LG, lo, len(cand.Order))
	}
	w.kept.Seek(f0)
	for sc := w.cold.Next(); sc != nil; sc = w.cold.Next() {
		if sc.Tile.FLG < f0 {
			continue
		}
		sk := w.kept.Next()
		if sk == nil {
			t.Fatalf("%s: the kept walk ends before tile %d", what, sc.Tile.Seq)
		}
		if d := stepDiff(sk, sc); d != "" {
			t.Fatalf("%s: tile %d: %s", what, sc.Tile.Seq, d)
		}
	}
	if sk := w.kept.Next(); sk != nil {
		t.Fatalf("%s: the kept walk goes on at tile %d", what, sk.Tile.Seq)
	}
	ki := w.kept.AppendOnChip(nil, 0, len(cand.Order))
	ci := w.cold.AppendOnChip(nil, 0, len(cand.Order))
	if !reflect.DeepEqual(ki, ci) {
		t.Fatalf("%s: kept on-chip intervals %v, cold %v", what, ki, ci)
	}
	return st, true
}

// stepDiff describes how step x differs from y, tensor IDs aside.
func stepDiff(x, y *Step) string {
	if x.Tile != y.Tile || x.Dur != y.Dur || x.Energy != y.Energy {
		return fmt.Sprintf("tile %+v (%v ns, %v pJ), cold %+v (%v ns, %v pJ)",
			x.Tile, x.Dur, x.Energy, y.Tile, y.Dur, y.Energy)
	}
	if len(x.Tensors) != len(y.Tensors) {
		return fmt.Sprintf("%d tensors, cold %d", len(x.Tensors), len(y.Tensors))
	}
	for i := range x.Tensors {
		a, b := x.Tensors[i], y.Tensors[i]
		a.ID, b.ID = 0, 0
		if a != b {
			return fmt.Sprintf("tensor %d: %+v, cold %+v", i, a, b)
		}
	}
	return ""
}

// keep keeps the kept arena's current lowering, of cand.
func (w *keptWalk) keep(cand *Encoding) {
	w.kept.Keep()
	w.base, w.cur = cand, cand
}

// TestKeptLowerMatchesCold: an arena that keeps each lowering the walk
// accepts and lowers the next candidate from it yields, from the FLG it
// resumes at, the steps a cold lowering yields, tile by tile, with the same
// errors, tile counts and on-chip intervals; and a Parse from the kept
// lowering hashes like a fresh Parse. The fixed-seed LFA walks run on the
// zoo and the 2-block prefill cut; besides random operators they force
// fine-grained cuts added and deleted mid-encoding (which shift the later
// FLGs' indices), DRAM-cut toggles (which change no plan), tiling changes
// and layer moves, reject a third of the candidates that lower, and keep
// after a failed lowering (which must keep the base). Each forced move is
// also held to what it may look up in the memo.
func TestKeptLowerMatchesCold(t *testing.T) {
	for wi, c := range arenaWalks(t) {
		t.Run(c.name, func(t *testing.T) {
			w := &keptWalk{t: t, g: c.g, cur: DefaultEncoding(c.g, c.tiles),
				memo: NewFLGMemo(c.g, coresched.New(hw.Edge()), DefaultFLGMemoBytes)}
			if _, ok := w.lower(w.cur, "start"); !ok {
				t.Fatal("the no-fusion start does not lower")
			}
			w.keep(w.cur)
			rng := rand.New(rand.NewSource(int64(wi + 1)))
			var lookups, bookkept, layers int
			for step := 0; step < 300; step++ {
				cand := w.cur.Clone()
				what := fmt.Sprintf("step %d", step)
				maxLookups := cand.NumFLGs() + 1
				switch step % 6 {
				case 0: // a cut inside a middle FLG
					f := cand.NumFLGs() / 2
					if lo, hi := cand.FLGBounds(f); hi-lo > 1 {
						cand.AddFLC(lo + 1 + rng.Intn(hi-lo-1))
						maxLookups = 2
					}
				case 1: // merge two middle FLGs
					if i := len(cand.FLCs) / 2; i < len(cand.FLCs) {
						cand.RemoveFLC(i, cand.Tile[i+rng.Intn(2)])
						maxLookups = 1
					}
				case 2: // toggle a DRAM cut
					if len(cand.FLCs) > 0 {
						i := rng.Intn(len(cand.FLCs))
						cand.IsDRAM[i] = !cand.IsDRAM[i]
						maxLookups = 0
					}
				case 3: // halve or double a tiling number
					f := rng.Intn(cand.NumFLGs())
					if cand.Tile[f] > 1 && rng.Intn(2) == 0 {
						cand.Tile[f] /= 2
					} else if 2*cand.Tile[f] <= goldenMaxTiles(c.g, cand, f) {
						cand.Tile[f] *= 2
					}
					maxLookups = 1
				case 4: // move a layer
					n := len(cand.Order)
					cand.MoveLayer(c.g, rng.Intn(n), rng.Intn(n))
				default:
					if next, _, ok := goldenMutate(c.g, cand, rng); ok {
						cand = next
					}
				}
				st, ok := w.lower(cand, what)
				lookups += st.Lookups
				if st.Lookups > maxLookups {
					t.Fatalf("%s: %d FLG plans looked up, at most %d expected", what, st.Lookups, maxLookups)
				}
				if !ok {
					w.kept.Keep() // nothing to keep: the base stays
					continue
				}
				bookkept, layers = bookkept+st.Bookkept, layers+len(cand.Order)
				if step%10 == 9 {
					want := parseOutcome(Parse(c.g, cand))
					if got := parseOutcome(w.kept.Parse(c.g, cand, w.memo)); got != want {
						t.Fatalf("%s: Parse from the kept lowering %s, fresh Parse %s", what, got, want)
					}
				}
				if rng.Intn(3) > 0 {
					w.keep(cand)
				}
			}
			t.Logf("%d FLG plans looked up, %d of %d layers bookkept (%.0f%%)",
				lookups, bookkept, layers, 100*float64(bookkept)/float64(layers))
			if bookkept >= layers {
				t.Fatalf("every layer was bookkept afresh (%d of %d)", bookkept, layers)
			}
		})
	}
}
