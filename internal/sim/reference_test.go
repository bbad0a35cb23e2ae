package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/graph"
	"soma/internal/hw"
	"soma/internal/models"
)

// referenceEvaluate is a deliberately naive merge of the two serial
// resources, written from the schedule's semantics rather than from
// Evaluate: one event per step, the DRAM tensor next in order before the
// tile next in sequence, each readiness check re-derived from the commit
// flags. A load waits for every store of its Source layer (listed by
// afterStores, not read from the schedule's store windows) and starts no
// earlier than the latest of their ends; no checkpoints, scratch or
// last-store shortcut. The commit times form a fixed point that does not
// depend on the interleaving, so Evaluate and Incremental must reproduce
// them - and the point where a deadlocked merge gets stuck - exactly. The
// completed merge is folded by the same finishMetrics as theirs, over the
// occupancy referenceUsage sums.
func referenceEvaluate(s *core.Schedule, cs *coresched.Scheduler, budget int64) (*Metrics, error) {
	cfg := cs.Config()
	n, m := s.NumTiles(), len(s.Tensors)
	tc := PrecomputeTileCosts(s, cs)
	tileStart, tileEnd := make([]float64, n), make([]float64, n)
	tensorStart, tensorEnd := make([]float64, m), make([]float64, m)
	tileDone, tensorDone := make([]bool, n), make([]bool, m)
	after := afterStores(s)

	// gates[i] lists the tensors tile i waits for: the loads it is the
	// first consumer of and the stores whose Living Duration ends at it.
	gates := make([][]int, n)
	for id := range s.Tensors {
		t := &s.Tensors[id]
		switch {
		case t.Kind.IsLoad():
			gates[t.FirstUse] = append(gates[t.FirstUse], id)
		case t.End < n:
			gates[t.End] = append(gates[t.End], id)
		}
	}

	var computeFree, dramFree, dramBusy float64
	var dramBytes int64
	i, j := 0, 0
	for i < n || j < m {
		if j < m {
			t := &s.Tensors[s.Order[j]]
			ready, dep := false, 0.0
			if t.Kind.IsLoad() {
				ready = t.Start == 0 || tileDone[t.Start-1]
				if t.Start > 0 {
					dep = tileEnd[t.Start-1]
				}
				for _, st := range after[t.ID] {
					ready = ready && tensorDone[st]
					dep = math.Max(dep, tensorEnd[st])
				}
			} else {
				ready = tileDone[t.Producer]
				dep = tileEnd[t.Producer]
			}
			if ready {
				dur := float64(t.Bytes) / cfg.DRAMBandwidth
				tensorStart[t.ID] = math.Max(dramFree, dep)
				tensorEnd[t.ID] = tensorStart[t.ID] + dur
				tensorDone[t.ID] = true
				dramFree = tensorEnd[t.ID]
				dramBusy += dur
				dramBytes += t.Bytes
				j++
				continue
			}
		}
		if i < n {
			ready, dep := true, 0.0
			for _, id := range gates[i] {
				ready = ready && tensorDone[id]
				dep = math.Max(dep, tensorEnd[id])
			}
			if ready {
				tileStart[i] = math.Max(computeFree, dep)
				tileEnd[i] = tileStart[i] + tc.Dur[i]
				tileDone[i] = true
				computeFree = tileEnd[i]
				i++
				continue
			}
		}
		return &Metrics{}, fmt.Errorf("%w: stuck at tile %d/%d, tensor %d/%d",
			ErrDeadlock, i, n, j, m)
	}
	met := finishMetrics(cfg, s.G, budget, sumUsage(referenceUsage(s), tc.Dur),
		tc.CoreEnergy, tc.ComputeBusy, computeFree, dramFree, dramBusy, dramBytes)
	met.TileStart, met.TileEnd = tileStart, tileEnd
	met.TensorStart, met.TensorEnd = tensorStart, tensorEnd
	return met, nil
}

// referenceUsage sums the buffer occupancy at each tile seq seq by seq,
// from the tensors' raw fields rather than core.Tensor.Live: a load holds
// its bytes from Start up to its Release, a store from its producing tile
// up to the later of its End and the end of its on-chip consumption
// (OnChipHi), and each static on-chip interval over its seqs.
func referenceUsage(s *core.Schedule) []int64 {
	n := s.NumTiles()
	usage := make([]int64, n)
	hold := func(lo, hi int, b int64) {
		for seq := max(lo, 0); seq < min(hi, n); seq++ {
			usage[seq] += b
		}
	}
	for _, iv := range s.OnChip {
		hold(iv.Lo, iv.Hi, iv.Bytes)
	}
	for i := range s.Tensors {
		t := &s.Tensors[i]
		if t.Kind.IsLoad() {
			hold(t.Start, t.Release, t.Bytes)
		} else {
			hold(t.Producer, max(t.End, t.OnChipHi), t.Bytes)
		}
	}
	return usage
}

// sameResult reports how got differs from the reference result (want,
// wantErr): every scalar metric must be ==, errors must carry identical
// text, and traced times (when got has them) must match the reference's
// per tile and per tensor.
func sameResult(got *Metrics, gotErr error, want *Metrics, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return ""
	}
	if !metricsEqual(got, want) || got.TheoreticalMaxUtil != want.TheoreticalMaxUtil ||
		got.DRAMUtilization != want.DRAMUtilization ||
		got.ComputeUtilization != want.ComputeUtilization || got.Budget != want.Budget {
		return fmt.Sprintf("metrics %+v, reference %+v", *got, *want)
	}
	if got.TileEnd == nil {
		return ""
	}
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"tile start", got.TileStart, want.TileStart},
		{"tile end", got.TileEnd, want.TileEnd},
		{"tensor start", got.TensorStart, want.TensorStart},
		{"tensor end", got.TensorEnd, want.TensorEnd},
	} {
		for k := range c.want {
			if c.got[k] != c.want[k] {
				return fmt.Sprintf("%s %d = %v, reference %v", c.name, k, c.got[k], c.want[k])
			}
		}
	}
	return ""
}

// prefillCut parses GPT-2 Small prefill cut to two transformer blocks with
// no fusion at tiles tiles per layer: every reload of a tiled consumer
// waits on all tiles' stores of its producer, the case the last-store gate
// shortcuts.
func prefillCut(t testing.TB, tiles int) *core.Schedule {
	g := prefillGraph()
	return parse(t, g, core.DefaultEncoding(g, tiles))
}

// prefillGraph is GPT-2 Small prefill cut to two transformer blocks.
func prefillGraph() *graph.Graph {
	cfg := models.GPT2Small()
	cfg.Layers = 2
	return models.GPT2Prefill(cfg, 1)
}

// refCase is one schedule the reference is checked on.
type refCase struct {
	name string
	s    *core.Schedule
	cfg  hw.Config
}

func refCases(t *testing.T) []refCase {
	var cases []refCase
	small := smallNet(t)
	for seed := int64(1); seed <= 4; seed++ {
		if s, err := core.Parse(small, randomEncoding(small, seed*101)); err == nil {
			cases = append(cases, refCase{fmt.Sprintf("small-%d", seed), s, hw.Edge()})
		}
	}
	for _, z := range []struct {
		model string
		cfg   hw.Config
		tile  int
	}{
		{"mobilenetv2", hw.Edge(), 2},
		{"resnet50", hw.Cloud(), 1},
		{"gpt2s-decode", hw.Edge(), 1},
	} {
		g, err := models.Build(z.model, 1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, refCase{z.model, parse(t, g, core.DefaultEncoding(g, z.tile)), z.cfg})
	}
	return append(cases, refCase{"gpt2s-prefill-2blk", prefillCut(t, 4), hw.Edge()})
}

// refWalk drives moves drawn by propose (accepted or rejected at random,
// deadlocked or not) through an Incremental over s and checks every
// proposal - and, after each decision, the accepted state - against the
// reference: Evaluate with its traced times, and the Incremental's own
// result. It returns the number of proposals that deadlocked.
func refWalk(t *testing.T, s *core.Schedule, cs *coresched.Scheduler, seed int64, moves int,
	propose func(*Incremental, *rand.Rand) bool) int {
	t.Helper()
	inc, err := NewIncremental(s, cs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(step int, what string, im *Metrics, ierr error) {
		t.Helper()
		rm, rerr := referenceEvaluate(s, cs, 0)
		fm, ferr := Evaluate(s, cs, Options{Trace: true})
		if d := sameResult(fm, ferr, rm, rerr); d != "" {
			t.Fatalf("step %d: Evaluate of the %s: %s", step, what, d)
		}
		if d := sameResult(im, ierr, rm, rerr); d != "" {
			t.Fatalf("step %d: Incremental of the %s: %s", step, what, d)
		}
	}
	im, ierr := inc.Metrics()
	check(0, "start", im, ierr)
	rng := rand.New(rand.NewSource(seed))
	deadlocks := 0
	for step := 1; step <= moves; {
		if !propose(inc, rng) {
			continue
		}
		im, ierr := inc.EvaluateProposal()
		check(step, "proposal", im, ierr)
		if errors.Is(ierr, ErrDeadlock) {
			deadlocks++
		}
		if rng.Intn(2) == 0 {
			inc.Accept()
		} else {
			inc.Reject()
		}
		im, ierr = inc.Metrics()
		check(step, "accepted state", im, ierr)
		step++
	}
	return deadlocks
}

// TestReferenceLegalWalks: on legal DLSA walks over the small net, the zoo
// and the prefill cut, Evaluate and Incremental equal the naive reference.
func TestReferenceLegalWalks(t *testing.T) {
	for i, c := range refCases(t) {
		t.Run(c.name, func(t *testing.T) {
			if !c.s.OrderValid() {
				t.Fatal("parsed order is invalid")
			}
			refWalk(t, c.s, coresched.New(c.cfg), int64(i+1), 60, proposeRandomMove)
		})
	}
}

// afterStores lists, per tensor ID, the stores each load waits on: every
// store of its Source layer in ID order, found by scanning the tensors. It
// is empty for stores, weights and loads of graph inputs (whose Source has
// no stores). These are the per-load lists Parse once attached to the
// tensors; the tests keep them as a reference the store windows must match.
func afterStores(s *core.Schedule) [][]int {
	stores := make(map[graph.LayerID][]int)
	for id := range s.Tensors {
		if t := &s.Tensors[id]; t.Kind == core.StoreOfmap {
			stores[t.Layer] = append(stores[t.Layer], id)
		}
	}
	after := make([][]int, len(s.Tensors))
	for id := range s.Tensors {
		if t := &s.Tensors[id]; t.Kind == core.LoadIfmap {
			after[id] = stores[t.Source]
		}
	}
	return after
}

// misorder pulls k random reloads (loads waiting on stores) of s to random
// earlier order positions, past some or all of their producer's stores,
// and lets them start at tile 0: only the store gate holds them back. It
// returns false when s has no reload.
func misorder(s *core.Schedule, rng *rand.Rand, k int) bool {
	var gated []int
	for id, after := range afterStores(s) {
		if len(after) > 0 {
			gated = append(gated, id)
		}
	}
	if len(gated) == 0 {
		return false
	}
	for ; k > 0; k-- {
		id := gated[rng.Intn(len(gated))]
		from := slices.Index(s.Order, id)
		s.SetLiving(id, 0)
		core.Rotate(s.Order, from, rng.Intn(from+1))
	}
	return true
}

// TestReferenceInvalidOrders: orders that put reloads before their
// producer's stores deadlock, and both evaluators must stop at the very
// tile and tensor the reference does - from an invalid start and through
// moves made from it.
func TestReferenceInvalidOrders(t *testing.T) {
	for i, c := range refCases(t) {
		t.Run(c.name, func(t *testing.T) {
			if !misorder(c.s, rand.New(rand.NewSource(int64(i+1))), 3) {
				t.Skip("no reload in this schedule")
			}
			if c.s.OrderValid() {
				t.Skip("rotations kept the order valid")
			}
			refWalk(t, c.s, coresched.New(c.cfg), int64(i+1), 40, proposeRandomMove)
		})
	}
}

// TestOrderValidMatchesEvaluate: OrderValid - a prefix maximum of the waits
// along the order against each gate, plus the producer rule - accepts
// exactly the schedules Evaluate runs to completion. Each step perturbs a
// fresh copy of the small nets, the zoo and the prefill cut by one to three
// raw rotations, misordered reloads or Living Durations set anywhere in
// their range.
func TestOrderValidMatchesEvaluate(t *testing.T) {
	for i, c := range refCases(t) {
		t.Run(c.name, func(t *testing.T) {
			cs := coresched.New(c.cfg)
			opt := Options{TileCosts: PrecomputeTileCosts(c.s, cs)}
			rng := rand.New(rand.NewSource(int64(i + 1)))
			n, m := c.s.NumTiles(), len(c.s.Order)
			var valid, invalid int
			for step := 0; step < 300; step++ {
				s := c.s.Clone()
				for k := 1 + rng.Intn(3); k > 0; k-- {
					switch rng.Intn(4) {
					case 0:
						misorder(s, rng, 1)
					case 1:
						core.Rotate(s.Order, rng.Intn(m), rng.Intn(m))
					default:
						s.SetLiving(rng.Intn(m), rng.Intn(n+1))
					}
				}
				_, err := Evaluate(s, cs, opt)
				if err != nil && !errors.Is(err, ErrDeadlock) {
					t.Fatal(err)
				}
				if s.OrderValid() != (err == nil) {
					t.Fatalf("step %d: OrderValid() = %v, Evaluate: %v", step, s.OrderValid(), err)
				}
				if err == nil {
					valid++
				} else {
					invalid++
				}
			}
			if valid == 0 || invalid == 0 {
				t.Fatalf("%d valid and %d invalid schedules: the walk does not exercise both", valid, invalid)
			}
		})
	}
}

// referenceMoveLegal is Schedule.MoveTensor's legality rule written on its
// own. The producer rule is the list scan it used to be: a load may
// not move before any store it waits on, and a store may not move after
// any load that waits on it. The pair rule is a brute-force scan of every
// pair of the rotated order: the move is illegal when it orders a tensor U
// at or before a tensor V that gates a tile U waits for (0 <= V.Gate <=
// U.Wait) and the order before the move did not, so a base that already
// carries such a pair keeps the moves that add none.
func referenceMoveLegal(s *core.Schedule, after [][]int, from, to int) bool {
	n := len(s.Order)
	if from < 0 || from >= n || to < 0 || to >= n || from == to {
		return false
	}
	id := s.Order[from]
	if to < from {
		for p := to; p < from; p++ {
			if slices.Contains(after[id], s.Order[p]) {
				return false
			}
		}
	}
	if to > from && s.Tensors[id].Kind == core.StoreOfmap {
		for p := from + 1; p <= to; p++ {
			if slices.Contains(after[s.Order[p]], id) {
				return false
			}
		}
	}
	basePos := make([]int, n)
	for p, c := range s.Order {
		basePos[c] = p
	}
	moved := slices.Clone(s.Order)
	core.Rotate(moved, from, to)
	nt := s.NumTiles()
	for q, v := range moved {
		g := s.Tensors[v].Gate(nt)
		if g < 0 {
			continue
		}
		for _, u := range moved[:q+1] {
			if s.Tensors[u].Wait() >= g && basePos[u] > basePos[v] {
				return false
			}
		}
	}
	return true
}

// TestMoveTensorMatchesListReference: on random moves over the small net,
// the zoo and the prefill cut - from the parsed order, and from orders
// misorder scrambled - MoveTensor accepts exactly the moves
// referenceMoveLegal's list and pair scans accept, applies each as a
// rotation and leaves the order alone otherwise.
func TestMoveTensorMatchesListReference(t *testing.T) {
	for i, c := range refCases(t) {
		t.Run(c.name, func(t *testing.T) {
			s := c.s
			after := afterStores(s)
			rng := rand.New(rand.NewSource(int64(i + 1)))
			n := len(s.Order)
			var legal, illegal int
			for step := 0; step < 3000; step++ {
				if step%1000 == 500 {
					misorder(s, rng, 3)
				}
				from := rng.Intn(n)
				to := from + rng.Intn(65) - 32 // short moves as often as long ones
				if rng.Intn(2) == 0 {
					to = rng.Intn(n)
				}
				want := referenceMoveLegal(s, after, from, to)
				before := slices.Clone(s.Order)
				if got := s.MoveTensor(from, to); got != want {
					t.Fatalf("step %d: MoveTensor(%d, %d) of tensor %d = %v, reference says %v",
						step, from, to, before[from], got, want)
				}
				if want {
					core.Rotate(before, from, to)
					legal++
				} else if from != to && to >= 0 && to < n {
					illegal++
				}
				if !slices.Equal(s.Order, before) {
					t.Fatalf("step %d: MoveTensor(%d, %d) left order %v, want %v", step, from, to, s.Order, before)
				}
			}
			if legal == 0 || illegal == 0 && slices.ContainsFunc(after, func(a []int) bool { return len(a) > 0 }) {
				t.Fatalf("%d legal and %d illegal moves: the walk does not exercise both", legal, illegal)
			}
		})
	}
}

// FuzzMoveTensor checks MoveTensor's refusal against the reference merge:
// on a deadlock-free schedule it refuses a move exactly when the move,
// forced by a plain rotation, makes referenceEvaluate deadlock. The first
// byte picks the schedule - mobilenetv2, resnet50, gpt2s-decode, the
// prefill cut at 4 tiles per layer, or a fused encoding of the prefill
// cut - and every following 5-byte group is one operation: its first byte
// c picks it, the next two 16-bit values a and b are its arguments.
//
//   - c%4 == 0: jitter tensor a's Living Duration by b%17-8, undone when the
//     schedule then deadlocks, so the walk stays deadlock-free;
//   - otherwise: move the tensor at order position a to position b, or,
//     when bit 2 of c is clear, to at most 16 positions either way, where
//     more moves are legal. A legal move is kept.
func FuzzMoveTensor(f *testing.F) {
	prefill := prefillGraph()
	edge, cloud := coresched.New(hw.Edge()), coresched.New(hw.Cloud())
	type zooCase struct {
		s  *core.Schedule
		cs *coresched.Scheduler
	}
	var zoo []zooCase
	for _, z := range []struct {
		model string
		cs    *coresched.Scheduler
		tile  int
	}{{"mobilenetv2", edge, 2}, {"resnet50", cloud, 1}, {"gpt2s-decode", edge, 1}} {
		g := build(f, z.model, 1)
		zoo = append(zoo, zooCase{parse(f, g, core.DefaultEncoding(g, z.tile)), z.cs})
	}
	zoo = append(zoo, zooCase{prefillCut(f, 4), edge},
		zooCase{parse(f, prefill, randomEncoding(prefill, 2)), edge})
	rng := rand.New(rand.NewSource(1))
	for k := range zoo {
		seed := make([]byte, 1+5*300)
		rng.Read(seed)
		seed[0] = byte(k)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		z := zoo[0]
		if len(data) > 0 {
			z, data = zoo[int(data[0])%len(zoo)], data[1:]
		}
		s, cs := z.s.Clone(), z.cs
		deadlocks := func() bool {
			_, err := referenceEvaluate(s, cs, 0)
			return errors.Is(err, ErrDeadlock)
		}
		if deadlocks() {
			t.Fatal("the start schedule deadlocks")
		}
		m := len(s.Order)
		const maxOps = 300
		for op := 0; len(data) >= 5 && op < maxOps; op++ {
			c := data[0]
			a := int(binary.BigEndian.Uint16(data[1:]))
			b := int(binary.BigEndian.Uint16(data[3:]))
			data = data[5:]
			if c%4 == 0 {
				id := a % m
				old := s.Tensors[id].Living()
				if s.SetLiving(id, old+b%17-8) && deadlocks() {
					s.SetLiving(id, old)
				}
				continue
			}
			from, to := a%m, b%m
			if c&4 == 0 {
				to = min(max(from+b%33-16, 0), m-1)
			}
			if from == to {
				continue
			}
			want := slices.Clone(s.Order)
			core.Rotate(s.Order, from, to)
			stalls := deadlocks()
			core.Rotate(s.Order, to, from)
			if !stalls {
				core.Rotate(want, from, to)
			}
			if got := s.MoveTensor(from, to); got == stalls {
				t.Fatalf("operation %d: MoveTensor(%d, %d) of tensor %d = %v, but the rotated order deadlocks: %v",
					op, from, to, s.Order[from], got, stalls)
			}
			if !slices.Equal(s.Order, want) {
				t.Fatalf("operation %d: MoveTensor(%d, %d) left order %v, want %v", op, from, to, s.Order, want)
			}
		}
	})
}
