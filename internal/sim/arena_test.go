package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/graph"
	"soma/internal/hw"
	"soma/internal/models"
)

// checkArena evaluates enc in a and compares the result with Evaluate and
// the reference merge on the fresh parse, with ==, errors included. It
// reports whether enc parses.
func checkArena(t *testing.T, a *Arena, enc *core.Encoding, opt Options, what string) bool {
	t.Helper()
	am, aerr := a.Evaluate(enc, opt)
	s, perr := core.Parse(a.g, enc)
	if perr != nil {
		if aerr == nil || aerr.Error() != perr.Error() {
			t.Fatalf("%s: arena error %v, Parse error %v", what, aerr, perr)
		}
		return false
	}
	rm, rerr := referenceEvaluate(s, a.cs, opt.BufferBudget)
	if d := sameResult(am, aerr, rm, rerr); d != "" {
		t.Fatalf("%s: arena: %s", what, d)
	}
	fm, ferr := Evaluate(s, a.cs, opt)
	if d := sameResult(fm, ferr, rm, rerr); d != "" {
		t.Fatalf("%s: Evaluate: %s", what, d)
	}
	return true
}

// TestArenaMatchesEvaluate: an arena evaluation of an encoding - memoized
// FLG plans, slab sizes and tile costs, reused buffers, right after a much
// larger schedule - equals Evaluate and the reference merge on the fresh
// parse, parse errors included. The memo's tiny budget keeps it evicting
// throughout.
//
// The walks run 200 steps of the stage-1 LFA operators, moving to every
// candidate that parses, on graphs that exercise each tensor rule: ires
// (weights, halo slabs, multi-consumer producers), gpt2s-decode at batch 4
// (per-sample weights), and the 2-block prefill cut at 1, 4 and 16 tiles
// per layer (global dependencies, single- and multi-tile consumers).
func TestArenaMatchesEvaluate(t *testing.T) {
	cut := models.GPT2Small()
	cut.Layers = 2
	prefill := models.GPT2Prefill(cut, 1)
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"small", smallNet(t)},
		{"gpt2s-prefill-2blk", prefill},
		{"mobilenetv2", build(t, "mobilenetv2", 2)},
		{"gpt2s-decode", build(t, "gpt2s-decode", 2)},
	}
	for gi, c := range graphs {
		t.Run(c.name, func(t *testing.T) {
			cs := coresched.New(hw.Edge())
			for _, budget := range []int64{core.DefaultFLGMemoBytes, 16 << 10} {
				a := NewArena(c.g, cs, core.NewFLGMemo(c.g, cs, budget))
				big := core.DefaultEncoding(c.g, 32)
				for k := 0; k < 40; k++ {
					enc := randomEncoding(c.g, int64(100*gi+k))
					if k%5 == 0 {
						enc = big
					}
					opt := Options{BufferBudget: int64(k%3) << 20}
					checkArena(t, a, enc, opt, fmt.Sprintf("memo budget %d, encoding %d", budget, k))
				}
			}
		})
	}

	walks := []struct {
		name  string
		g     *graph.Graph
		tiles int
	}{
		{"ires", build(t, "ires", 1), 1},
		{"gpt2s-decode-b4", build(t, "gpt2s-decode", 4), 1},
		{"gpt2s-prefill-2blk-t1", prefill, 1},
		{"gpt2s-prefill-2blk-t4", prefill, 4},
		{"gpt2s-prefill-2blk-t16", prefill, 16},
	}
	for wi, w := range walks {
		t.Run("walk/"+w.name, func(t *testing.T) {
			cs := coresched.New(hw.Edge())
			memo := core.NewFLGMemo(w.g, cs, 64<<10)
			a := NewArena(w.g, cs, memo)
			rng := rand.New(rand.NewSource(int64(wi + 1)))
			cur := core.DefaultEncoding(w.g, w.tiles)
			parsed := 0
			for step := 0; step < 200; step++ {
				cand := cur.Clone()
				lfaMutate(w.g, cand, byte(rng.Intn(5)), byte(rng.Intn(256)), byte(rng.Intn(256)))
				opt := Options{BufferBudget: int64(step%3) << 20}
				if checkArena(t, a, cand, opt, fmt.Sprintf("step %d", step)) {
					cur = cand
					parsed++
				}
			}
			if st := memo.Stats(); st.Evictions == 0 {
				t.Errorf("the memo never evicted (%d entries, %d bytes)", st.Entries, st.Bytes)
			}
			t.Logf("%d of 200 candidates parsed", parsed)
		})
	}
}

// TestArenaRejectsTraceAndTileCosts: the arena owns the timelines and the
// tile costs.
func TestArenaRejectsTraceAndTileCosts(t *testing.T) {
	g := smallNet(t)
	a := NewArena(g, coresched.New(hw.Edge()), nil)
	enc := core.DefaultEncoding(g, 1)
	for _, opt := range []Options{{Trace: true}, {TileCosts: &TileCosts{}}} {
		if _, err := a.Evaluate(enc, opt); err == nil {
			t.Fatalf("options %+v accepted", opt)
		}
	}
	if _, err := a.Evaluate(enc, Options{}); err != nil {
		t.Fatal(err)
	}
}

// build builds a zoo model.
func build(t testing.TB, name string, batch int) *graph.Graph {
	t.Helper()
	g, err := models.Build(name, batch)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// lfaMutate applies the LFA operator op (mod 5) to e with the argument
// bytes a and b, as core's fuzz target decodes them: move the layer at a to
// b, double (b even) or halve FLG a's tiling number, add a cut at a, delete
// cut a keeping the left (b even) or right tiling number, or toggle cut a's
// DRAM flag. Doubling stops at the FLG's smallest layer's element count;
// out-of-range or illegal moves leave e unchanged.
func lfaMutate(g *graph.Graph, e *core.Encoding, op, a, b byte) {
	n := len(e.Order)
	switch op % 5 {
	case 0:
		e.MoveLayer(g, int(a)%n, int(b)%n)
	case 1:
		f := int(a) % e.NumFLGs()
		if b%2 == 0 {
			limit := 1 << 30
			for _, id := range e.FLGLayers(f) {
				s := g.Layer(id).Out
				limit = min(limit, s.N*s.H*s.W)
			}
			if 2*e.Tile[f] <= limit {
				e.Tile[f] *= 2
			}
		} else if e.Tile[f] > 1 {
			e.Tile[f] /= 2
		}
	case 2:
		e.AddFLC(1 + int(a)%(n-1))
	case 3:
		if len(e.FLCs) == 0 {
			return
		}
		i := int(a) % len(e.FLCs)
		tile := e.Tile[i]
		if b%2 == 1 {
			tile = e.Tile[i+1]
		}
		e.RemoveFLC(i, tile)
	default:
		if len(e.FLCs) > 0 {
			i := int(a) % len(e.FLCs)
			e.IsDRAM[i] = !e.IsDRAM[i]
		}
	}
}

// FuzzArenaEvaluate drives the arena with LFA operator sequences decoded
// like core.FuzzParse's: the first byte picks the model (mobilenetv2, or
// gpt2s-prefill for attention's global dependencies) and the no-fusion
// start's tiling number (1, 2 or 4), every following 3-byte group is one
// operator (see lfaMutate). One arena evaluates the start and the final
// encoding, each of which must equal Evaluate on the fresh parse and the
// reference merge, errors included.
func FuzzArenaEvaluate(f *testing.F) {
	zoo := []*graph.Graph{build(f, "mobilenetv2", 1), build(f, "gpt2s-prefill", 1)}
	cs := coresched.New(hw.Edge())
	f.Fuzz(func(t *testing.T, data []byte) {
		g, tiles := zoo[0], 1
		if len(data) > 0 {
			g, tiles = zoo[data[0]/3%2], 1<<(data[0]%3)
			data = data[1:]
		}
		e := core.DefaultEncoding(g, tiles)
		a := NewArena(g, cs, core.NewFLGMemo(g, cs, 64<<10))
		checkArena(t, a, e, Options{}, "start")
		const maxOps = 256
		for op := 0; len(data) >= 3 && op < maxOps; op++ {
			lfaMutate(g, e, data[0], data[1], data[2])
			data = data[3:]
		}
		checkArena(t, a, e, Options{}, "end")
	})
}

// sameBits reports how a resumed arena result differs from the cold one:
// errors must carry the same text, and every field of the metrics the same
// bits.
func sameBits(got *Metrics, gotErr error, want *Metrics, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		return fmt.Sprintf("error %v, cold %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return ""
	}
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < gv.NumField(); i++ {
		g, w := gv.Field(i), wv.Field(i)
		var same bool
		switch g.Kind() {
		case reflect.Float64:
			same = math.Float64bits(g.Float()) == math.Float64bits(w.Float())
		case reflect.Slice:
			same = g.Len() == 0 && w.Len() == 0
		default:
			same = g.Interface() == w.Interface()
		}
		if !same {
			return fmt.Sprintf("%s = %v, cold %v", gv.Type().Field(i).Name, g, w)
		}
	}
	return ""
}

// firstStepChange lowers x and y and returns the first tile seq whose step
// differs between them - its compute time or energy, or a DRAM tensor's
// kind, layer, bytes or Living Duration fields, IDs aside - or the shorter
// walk's length when one walk is a prefix of the other.
func firstStepChange(t *testing.T, g *graph.Graph, memo *core.FLGMemo, x, y *core.Encoding) int {
	t.Helper()
	var wx, wy core.Arena
	if err := wx.Lower(g, x, memo); err != nil {
		t.Fatal(err)
	}
	if err := wy.Lower(g, y, memo); err != nil {
		t.Fatal(err)
	}
	for {
		sx, sy := wx.Next(), wy.Next()
		if sx == nil || sy == nil {
			return min(wx.NumTiles(), wy.NumTiles())
		}
		same := sx.Dur == sy.Dur && sx.Energy == sy.Energy && len(sx.Tensors) == len(sy.Tensors)
		for i := 0; same && i < len(sx.Tensors); i++ {
			a, b := sx.Tensors[i], sy.Tensors[i]
			a.ID, b.ID = 0, 0
			same = a == b
		}
		if !same {
			return sx.Tile.Seq
		}
	}
}

// resumeWalk drives LFA candidates through two arenas over one memo: res,
// which accepts what the walk accepts and resumes from it, and cold, which
// never accepts and so folds every candidate from tile 0. Each candidate's
// two results must agree bit for bit, and res's counters must account for
// it: one evaluation, the candidate's tiles, and a resume point that is
// tile 0 or the start of one of its LGs, no later than the first step in
// which it differs from res's base.
type resumeWalk struct {
	t         *testing.T
	g         *graph.Graph
	memo      *core.FLGMemo
	res, cold *Arena
	// base is the encoding res resumes from (nil before its first
	// Accept); cur is the walk's accepted state.
	base, cur *core.Encoding
	resumed   int
}

func newResumeWalk(t *testing.T, g *graph.Graph, tiles int) *resumeWalk {
	cs := coresched.New(hw.Edge())
	memo := core.NewFLGMemo(g, cs, core.DefaultFLGMemoBytes)
	return &resumeWalk{t: t, g: g, memo: memo, res: NewArena(g, cs, memo),
		cold: NewArena(g, cs, memo), cur: core.DefaultEncoding(g, tiles)}
}

// eval evaluates cand in both arenas, checks them, and reports whether cand
// lowers.
func (w *resumeWalk) eval(cand *core.Encoding, what string) bool {
	t := w.t
	t.Helper()
	before := w.res.Stats()
	rm, rerr := w.res.Evaluate(cand, Options{})
	cm, cerr := w.cold.Evaluate(cand, Options{})
	if d := sameBits(rm, rerr, cm, cerr); d != "" {
		t.Fatalf("%s: resumed %s", what, d)
	}
	st := w.res.Stats()
	if st.Evals != before.Evals+1 {
		t.Fatalf("%s: %d evaluations counted, want 1", what, st.Evals-before.Evals)
	}
	if rerr != nil {
		if st.Tiles != before.Tiles || st.Folded != before.Folded || st.Resumed != before.Resumed {
			t.Fatalf("%s: a failed lowering counted tiles: %+v -> %+v", what, before, st)
		}
		return false
	}
	s, err := core.Parse(w.g, cand)
	if err != nil {
		t.Fatal(err)
	}
	n := s.NumTiles()
	folded := int(st.Folded - before.Folded)
	b := n - folded
	if int(st.Tiles-before.Tiles) != n || folded < 1 || folded > n {
		t.Fatalf("%s: counted %d tiles and %d folded, the candidate has %d",
			what, st.Tiles-before.Tiles, folded, n)
	}
	if (b > 0) != (st.Resumed == before.Resumed+1) {
		t.Fatalf("%s: resumed at tile %d, resumed count %d -> %d", what, b, before.Resumed, st.Resumed)
	}
	if b > 0 {
		w.resumed++
		if s.Tiles[b].LG == s.Tiles[b-1].LG {
			t.Fatalf("%s: resumed at tile %d inside LG %d", what, b, s.Tiles[b].LG)
		}
		if w.base == nil {
			t.Fatalf("%s: resumed at tile %d before any Accept", what, b)
		}
		if d := firstStepChange(t, w.g, w.memo, w.base, cand); b > d {
			t.Fatalf("%s: resumed at tile %d, past the first changed step %d", what, b, d)
		}
	}
	return true
}

// accept accepts cand after res evaluated it.
func (w *resumeWalk) accept(cand *core.Encoding) {
	w.res.Accept()
	w.base, w.cur = cand, cand
}

// TestArenaResumeMatchesCold: an arena that resumes each evaluation from the
// encoding it last accepted scores every candidate of an LFA walk bit for
// bit as a cold fold does, parse errors included, on the zoo and on the
// 2-block prefill cut. Besides random operators, the walks force tiling
// changes and cuts in the first and the last FLG, DRAM-cut toggles that
// merge and split LGs, and acceptances from a cache hit: the candidate is
// accepted without res evaluating it, so res keeps resuming from an older
// base, and after a failed lowering res is told to accept, which must keep
// that base.
func TestArenaResumeMatchesCold(t *testing.T) {
	walks := []struct {
		name  string
		g     *graph.Graph
		tiles int
	}{
		{"mobilenetv2", build(t, "mobilenetv2", 1), 1},
		{"resnet50", build(t, "resnet50", 1), 1},
		{"ires", build(t, "ires", 1), 2},
		{"randwire", build(t, "randwire", 1), 1},
		{"gpt2s-decode-b4", build(t, "gpt2s-decode", 4), 1},
		{"gpt2s-prefill-2blk-t1", prefillGraph(), 1},
		{"gpt2s-prefill-2blk-t4", prefillGraph(), 4},
	}
	for wi, c := range walks {
		t.Run(c.name, func(t *testing.T) {
			w := newResumeWalk(t, c.g, c.tiles)
			if !w.eval(w.cur, "start") {
				t.Fatal("the no-fusion start does not lower")
			}
			w.accept(w.cur)
			rng := rand.New(rand.NewSource(int64(wi + 1)))
			hits := 0
			for step := 0; step < 160; step++ {
				cand := w.cur.Clone()
				what := fmt.Sprintf("step %d", step)
				switch step % 8 {
				case 0, 1: // the first FLG, then the last
					f := 0
					if step%8 == 1 {
						f = cand.NumFLGs() - 1
					}
					if lo, hi := cand.FLGBounds(f); hi-lo > 1 && rng.Intn(2) == 0 {
						cand.AddFLC(lo + 1 + rng.Intn(hi-lo-1))
					} else {
						lfaMutate(c.g, cand, 1, byte(f), byte(rng.Intn(2)))
					}
				case 2, 3: // merge LGs, then split one
					var cuts []int
					for i, d := range cand.IsDRAM {
						if d == (step%8 == 2) {
							cuts = append(cuts, i)
						}
					}
					if len(cuts) > 0 {
						i := cuts[rng.Intn(len(cuts))]
						cand.IsDRAM[i] = !cand.IsDRAM[i]
					}
				default:
					lfaMutate(c.g, cand, byte(rng.Intn(5)), byte(rng.Intn(256)), byte(rng.Intn(256)))
				}
				if step%13 == 12 { // accepted from a cache hit
					if _, err := core.Parse(c.g, cand); err == nil {
						w.cur = cand
						hits++
					}
					continue
				}
				if !w.eval(cand, what) {
					w.res.Accept() // nothing to accept: the base stays
					continue
				}
				if rng.Intn(3) > 0 {
					w.accept(cand)
				}
			}
			if hits == 0 || w.resumed == 0 {
				t.Fatalf("%d acceptances from a hit, %d resumed evaluations", hits, w.resumed)
			}
			st := w.res.Stats()
			t.Logf("%d of %d evaluations resumed, %d of %d tiles folded (%.0f%%)",
				st.Resumed, st.Evals, st.Folded, st.Tiles, 100*float64(st.Folded)/float64(st.Tiles))
		})
	}
}

// FuzzArenaResume drives a resuming arena with accept and reject sequences.
// The first byte picks the graph (mobilenetv2 or the 2-block prefill cut),
// the no-fusion start's tiling number (1, 2 or 4) and the FLG memo: one of
// 64 KB, or one of 1 KB, which evicts its generation on every insert and
// keeps no entry above 512 bytes, so the plans the arena keeps from its
// base are no longer the memo's and the FLGs it looks up are planned
// afresh. Every following 4-byte group is one LFA operator (see lfaMutate)
// and a decision: evaluate the candidate and accept it, evaluate it and
// reject it, or accept it unevaluated, as after a cache hit. Every
// evaluation, and a last one of the accepted state, must equal Evaluate on
// the fresh parse and the reference merge, errors included.
func FuzzArenaResume(f *testing.F) {
	zoo := []*graph.Graph{build(f, "mobilenetv2", 1), prefillGraph()}
	cs := coresched.New(hw.Edge())
	f.Add([]byte{0, 4, 3, 0, 0, 1, 2, 0, 1, 2, 7, 5, 0, 0, 9, 1, 1, 3, 1, 0, 2})
	f.Add([]byte{4, 2, 5, 0, 0, 4, 1, 0, 0, 1, 0, 0, 2, 0, 6, 1, 0, 4, 1, 3, 2})
	f.Add([]byte{6, 4, 3, 0, 0, 1, 2, 0, 1, 2, 7, 5, 0, 0, 9, 1, 1, 3, 1, 0, 2})
	f.Add([]byte{10, 2, 5, 0, 0, 4, 1, 0, 0, 1, 0, 0, 2, 0, 6, 1, 0, 4, 1, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, tiles, budget := zoo[0], 1, int64(64<<10)
		if len(data) > 0 {
			g, tiles = zoo[data[0]/3%2], 1<<(data[0]%3)
			if data[0]/6%2 == 1 {
				budget = 1 << 10
			}
			data = data[1:]
		}
		a := NewArena(g, cs, core.NewFLGMemo(g, cs, budget))
		cur := core.DefaultEncoding(g, tiles)
		if checkArena(t, a, cur, Options{}, "start") {
			a.Accept()
		}
		const maxOps = 64
		for op := 0; len(data) >= 4 && op < maxOps; op++ {
			cand := cur.Clone()
			lfaMutate(g, cand, data[0], data[1], data[2])
			switch data[3] % 3 {
			case 0:
				if checkArena(t, a, cand, Options{}, fmt.Sprintf("op %d", op)) {
					a.Accept()
					cur = cand
				}
			case 1:
				checkArena(t, a, cand, Options{}, fmt.Sprintf("op %d", op))
			default:
				if _, err := core.Parse(g, cand); err == nil {
					cur = cand
				}
			}
			data = data[4:]
		}
		checkArena(t, a, cur, Options{}, "end")
	})
}
