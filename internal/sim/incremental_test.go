package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/hw"
	"soma/internal/models"
)

// metricsEqual compares the metric fields the search objective and the
// feasibility check consume. The incremental evaluator is engineered to be
// bit-identical to Evaluate (same float operations in the same order), so
// the comparison is exact, not tolerance-based - any drift would eventually
// flip an SA acceptance draw and break golden stability.
func metricsEqual(a, b *Metrics) bool {
	return a.LatencyNS == b.LatencyNS &&
		a.EnergyPJ == b.EnergyPJ &&
		a.CoreEnergyPJ == b.CoreEnergyPJ &&
		a.DRAMEnergyPJ == b.DRAMEnergyPJ &&
		a.ComputeBusyNS == b.ComputeBusyNS &&
		a.DRAMBusyNS == b.DRAMBusyNS &&
		a.TotalDRAMBytes == b.TotalDRAMBytes &&
		a.PeakBufferBytes == b.PeakBufferBytes &&
		a.AvgBufferBytes == b.AvgBufferBytes &&
		a.BufferOK == b.BufferOK &&
		a.Utilization == b.Utilization
}

// proposeRandomMove applies one random DLSA operator (the same three
// stage-2 search uses) through the incremental evaluator. Returns false if
// the drawn move was illegal or a no-op.
func proposeRandomMove(inc *Incremental, rng *rand.Rand) bool {
	s := inc.Schedule()
	switch rng.Intn(3) {
	case 0:
		from := rng.Intn(len(s.Order))
		to := rng.Intn(len(s.Order))
		return inc.MoveTensor(from, to)
	case 1:
		id := rng.Intn(len(s.Tensors))
		if !s.Tensors[id].Kind.IsLoad() {
			return false
		}
		delta := 1 + rng.Intn(4)
		if rng.Intn(2) == 0 {
			delta = -delta
		}
		return inc.SetLiving(id, s.Tensors[id].Start+delta)
	default:
		id := rng.Intn(len(s.Tensors))
		if s.Tensors[id].Kind.IsLoad() {
			return false
		}
		delta := 1 + rng.Intn(4)
		if rng.Intn(2) == 0 {
			delta = -delta
		}
		return inc.SetLiving(id, s.Tensors[id].End+delta)
	}
}

// proposeWideJitter sets a random tensor's Living Duration anywhere in its
// range: a load's Start in [0, FirstUse], a store's End up to 8 tiles past
// its producing tile (clamped to the schedule). Returns false for a no-op.
func proposeWideJitter(inc *Incremental, rng *rand.Rand) bool {
	s := inc.Schedule()
	id := rng.Intn(len(s.Tensors))
	t := &s.Tensors[id]
	if t.Kind.IsLoad() {
		return inc.SetLiving(id, rng.Intn(t.FirstUse+1))
	}
	return inc.SetLiving(id, t.Producer+1+rng.Intn(8))
}

// proposeDeadlockingJitter sets a Living Duration to a value that
// deadlocks the merge, now that order moves never do: a store's End to a
// tile some tensor ordered before it waits for, or a load's Start past a
// tile some tensor ordered after it gates. It takes the first tensor, from
// a random order position on, that has such a value, and returns false
// when none does, as on an order sorted by gate.
func proposeDeadlockingJitter(inc *Incremental, rng *rand.Rand) bool {
	s := inc.Schedule()
	m, n := len(s.Order), s.NumTiles()
	// waitTo[p] is the latest tile a tensor ordered before p waits for,
	// gateFrom[p] the earliest one a tensor ordered at or after p gates.
	waitTo, gateFrom := make([]int, m+1), make([]int, m+1)
	waitTo[0], gateFrom[m] = -1, n
	for p, c := range s.Order {
		waitTo[p+1] = max(waitTo[p], s.Tensors[c].Wait())
	}
	for p := m - 1; p >= 0; p-- {
		gateFrom[p] = gateFrom[p+1]
		if g := s.Tensors[s.Order[p]].Gate(n); g >= 0 {
			gateFrom[p] = min(gateFrom[p], g)
		}
	}
	off := rng.Intn(m)
	for k := range m {
		p := (off + k) % m
		id := s.Order[p]
		t := &s.Tensors[id]
		if g := gateFrom[p+1]; t.Kind.IsLoad() && g < t.FirstUse {
			return inc.SetLiving(id, g+1+rng.Intn(t.FirstUse-g))
		}
		if w := waitTo[p]; !t.Kind.IsLoad() && w > t.Producer {
			return inc.SetLiving(id, t.Producer+1+rng.Intn(w-t.Producer))
		}
	}
	return false
}

// reorder applies k legal order moves, drawn at random, to s and returns
// it. A parse orders the tensors about as they gate tiles, and on an order
// sorted by gate no Living move deadlocks; few random order moves are
// legal, so a walk alone rarely unsorts it. It fails t when 1000 draws per
// move do not find k legal ones.
func reorder(t testing.TB, s *core.Schedule, rng *rand.Rand, k int) *core.Schedule {
	t.Helper()
	moved := 0
	for draws := 0; moved < k && draws < 1000*k; draws++ {
		if s.MoveTensor(rng.Intn(len(s.Order)), rng.Intn(len(s.Order))) {
			moved++
		}
	}
	if moved < k {
		t.Fatalf("reorder: %d legal order moves in %d draws, want %d", moved, 1000*k, k)
	}
	return s
}

// proposeStoreMove exercises the evaluator's per-layer last-store
// bookkeeping around the reload load: it moves the last (in order) of the
// stores load waits on to an earlier position, at most back to the first of
// them; or another of those stores just past the last; or load itself to
// a later position, at most just past the last store. Returns false when
// the move is illegal.
func proposeStoreMove(inc *Incremental, rng *rand.Rand, load int) bool {
	stores := afterStores(inc.Schedule())[load]
	if len(stores) == 0 {
		return false
	}
	first, last := stores[0], stores[0]
	for _, st := range stores {
		if inc.PosOf(st) < inc.PosOf(first) {
			first = st
		}
		if inc.PosOf(st) > inc.PosOf(last) {
			last = st
		}
	}
	firstPos, lastPos := inc.PosOf(first), inc.PosOf(last)
	span := func(lo, hi int) int { // a random position in [lo, hi]
		hi = min(hi, len(inc.Schedule().Order)-1)
		if hi < lo {
			return lo
		}
		return lo + rng.Intn(hi-lo+1)
	}
	switch rng.Intn(3) {
	case 0:
		return inc.MoveTensor(lastPos, span(firstPos, lastPos-1))
	case 1:
		st := stores[rng.Intn(len(stores))]
		return inc.MoveTensor(inc.PosOf(st), span(lastPos, lastPos+1))
	default:
		return inc.MoveTensor(inc.PosOf(load), span(inc.PosOf(load)+1, lastPos+1))
	}
}

// interleaveReload sets up an order in which the last-store bookkeeping
// decides a reload's stall. It picks a random reload of s that waits on
// several stores, lets it start at tile 0, and moves it and those stores
// into one block at the last store's position: the stores in their order
// with the reload after a random one but the last. The stores' Living
// Durations end with the execution, so they gate no tile and moves inside
// the block cannot deadlock the merge for any other reason. It returns the
// reload's ID.
func interleaveReload(s *core.Schedule, rng *rand.Rand) int {
	all := afterStores(s)
	for {
		t := &s.Tensors[rng.Intn(len(s.Tensors))]
		stores := all[t.ID]
		if len(stores) < 3 {
			continue
		}
		s.SetLiving(t.ID, 0)
		inBlock := map[int]bool{t.ID: true}
		for _, st := range stores {
			s.SetLiving(st, s.NumTiles())
			inBlock[st] = true
		}
		after := rng.Intn(len(stores) - 1)
		var order, block []int
		for _, id := range s.Order {
			if !inBlock[id] {
				order = append(order, id)
				continue
			}
			if id == t.ID {
				continue
			}
			block = append(block, id)
			if len(block) == after+1 {
				block = append(block, t.ID)
			}
			if len(block) == len(stores)+1 {
				order = append(order, block...)
			}
		}
		copy(s.Order, order)
		return t.ID
	}
}

// diffHarness drives moves random moves through an Incremental over s, one
// in eight a deadlocking jitter, checking after every proposal that the
// incremental metrics equal a full sim.Evaluate of the (mutated) schedule,
// and after every reject that the rollback restored the schedule exactly.
// It returns the number of evaluated proposals that deadlocked.
func diffHarness(t *testing.T, s *core.Schedule, cs *coresched.Scheduler, seed int64, moves int, wantResume bool) int {
	t.Helper()
	tc := PrecomputeTileCosts(s, cs)
	opt := Options{TileCosts: tc}
	inc, err := NewIncremental(s, cs, opt)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	applied, deadlocks := 0, 0
	for applied < moves {
		before := snapshotDLSA(s)
		propose := proposeRandomMove
		if rng.Intn(8) == 0 {
			propose = proposeDeadlockingJitter
		}
		if !propose(inc, rng) {
			continue
		}
		applied++

		action := rng.Intn(10)
		if action == 9 {
			// Simulated cache hit: the move is accepted without the
			// incremental evaluator ever seeing a proposal evaluation.
			// Its cached state must be invalidated, not corrupted.
			inc.Accept()
		} else {
			im, ierr := inc.EvaluateProposal()
			fm, ferr := Evaluate(s, cs, opt)
			if (ierr == nil) != (ferr == nil) {
				t.Fatalf("move %d: error disagreement: incremental=%v full=%v", applied, ierr, ferr)
			}
			if ierr == nil && !metricsEqual(im, fm) {
				t.Fatalf("move %d: proposal metrics diverge:\nincremental %+v\nfull        %+v", applied, im, fm)
			}
			if errors.Is(ierr, ErrDeadlock) {
				deadlocks++
			}
			// Deadlocked proposals cost Inf and are rejected by the
			// annealer; rejecting them here also keeps the walk on
			// legal states so checkpoints stay warm.
			if ierr == nil && action < 5 {
				inc.Accept()
			} else {
				inc.Reject()
				if !reflect.DeepEqual(before, snapshotDLSA(s)) {
					t.Fatalf("move %d: reject did not restore the schedule", applied)
				}
			}
		}

		// The accepted-state metrics must match a full evaluation at
		// every step (exercises both spliced and invalidated state).
		am, aerr := inc.Metrics()
		fm, ferr := Evaluate(s, cs, opt)
		if (aerr == nil) != (ferr == nil) {
			t.Fatalf("move %d: accepted-state error disagreement: incremental=%v full=%v", applied, aerr, ferr)
		}
		if aerr == nil && !metricsEqual(am, fm) {
			t.Fatalf("move %d: accepted-state metrics diverge:\nincremental %+v\nfull        %+v", applied, am, fm)
		}
	}
	if st := inc.Stats(); wantResume && st.Resumed == 0 {
		t.Errorf("no proposal ever resumed from a checkpoint (proposals=%d fallbacks=%d)", st.Proposals, st.Fallbacks)
	}
	return deadlocks
}

// dlsa is a schedule's DRAM-Load-and-Store-related attribute set: the
// tensor order plus every load Start and store End.
type dlsa struct{ order, start, end []int }

func snapshotDLSA(s *core.Schedule) dlsa {
	d := dlsa{order: append([]int(nil), s.Order...)}
	for i := range s.Tensors {
		d.start = append(d.start, s.Tensors[i].Start)
		d.end = append(d.end, s.Tensors[i].End)
	}
	return d
}

// TestIncrementalDifferentialSmall: exhaustive-ish random-walk agreement on
// the small synthetic net, across several seeds and fusion structures.
func TestIncrementalDifferentialSmall(t *testing.T) {
	g := smallNet(t)
	cs := coresched.New(hw.Edge())
	for seed := int64(1); seed <= 4; seed++ {
		e := randomEncoding(g, seed*101)
		s, err := core.Parse(g, e)
		if err != nil {
			continue
		}
		// Schedules this small have fewer merge events than the
		// checkpoint stride; resuming is not expected, only agreement.
		diffHarness(t, s, cs, seed, 400, false)
	}
}

// TestIncrementalDifferentialZoo: the same property over real zoo models
// (the schedules stage-2 search actually walks). Order moves no longer
// deadlock, so each walk starts from an order reordered by legal moves,
// where Living moves can deadlock, and must reach the evaluator's deadlock
// paths that way or through raw orders.
func TestIncrementalDifferentialZoo(t *testing.T) {
	cases := []struct {
		model string
		cfg   hw.Config
		tile  int
		moves int
	}{
		{"mobilenetv2", hw.Edge(), 2, 150},
		{"resnet50", hw.Cloud(), 1, 80},
		{"gpt2s-decode", hw.Edge(), 1, 150},
	}
	for _, c := range cases {
		t.Run(c.model, func(t *testing.T) {
			g, err := models.Build(c.model, 1)
			if err != nil {
				t.Fatal(err)
			}
			s, err := core.Parse(g, core.DefaultEncoding(g, c.tile))
			if err != nil {
				t.Fatal(err)
			}
			reorder(t, s, rand.New(rand.NewSource(int64(c.tile))), c.moves)
			if diffHarness(t, s, coresched.New(c.cfg), int64(len(c.model)), c.moves, true) == 0 {
				t.Error("no proposal deadlocked")
			}
		})
	}
	// Reloads of the prefill cut's tiled consumers each wait on all 8
	// stores of their producer.
	t.Run("gpt2s-prefill-2blk", func(t *testing.T) {
		s := reorder(t, prefillCut(t, 8), rand.New(rand.NewSource(15)), 200)
		if diffHarness(t, s, coresched.New(hw.Edge()), 15, 200, true) == 0 {
			t.Error("no proposal deadlocked")
		}
	})
	// Stage-1 winners fuse layers, so compute decides some times and a
	// jitter may change them: the early stop must notice. Most other
	// jitters go anywhere in the tensor's range, a few deadlock.
	t.Run("gpt2s-prefill-2blk-fused", func(t *testing.T) {
		g := prefillGraph()
		cs := coresched.New(hw.Edge())
		for seed := int64(2); seed <= 4; seed++ {
			s := reorder(t, parse(t, g, randomEncoding(g, seed)), rand.New(rand.NewSource(seed)), 150)
			deadlocks := refWalk(t, s, cs, seed, 150,
				func(inc *Incremental, rng *rand.Rand) bool {
					switch {
					case rng.Intn(2) == 0:
						return proposeRandomMove(inc, rng)
					case rng.Intn(4) == 0:
						return proposeDeadlockingJitter(inc, rng)
					}
					return proposeWideJitter(inc, rng)
				})
			if deadlocks == 0 {
				t.Errorf("seed %d: no proposal deadlocked", seed)
			}
		}
	})
	// A legal order hides that bookkeeping (every store precedes its
	// reloads). So each episode starts one reload at tile 0 and puts it
	// among its producer's stores, where the layer's last store decides
	// whether it stalls, then mostly moves those stores.
	t.Run("gpt2s-prefill-2blk-store-moves", func(t *testing.T) {
		cs := coresched.New(hw.Edge())
		rng := rand.New(rand.NewSource(16))
		deadlocks := 0
		for ep := 0; ep < 12; ep++ {
			s := prefillCut(t, 8)
			load := interleaveReload(s, rng)
			deadlocks += refWalk(t, s, cs, int64(ep), 40, func(inc *Incremental, rng *rand.Rand) bool {
				if rng.Intn(4) == 0 {
					return proposeRandomMove(inc, rng)
				}
				return proposeStoreMove(inc, rng, load)
			})
		}
		if deadlocks == 0 {
			t.Error("no proposal deadlocked")
		}
	})
}

// TestIncrementalDeadlockAgreement: driving the order into a deadlocking
// state (reload before its producer store) must error identically in both
// evaluators, and the evaluator must recover once the state moves back to
// legality.
func TestIncrementalDeadlockAgreement(t *testing.T) {
	g := smallNet(t)
	// The default encoding puts every layer in its own LG, so each layer
	// boundary is a store + dependent-reload pair.
	s, err := core.Parse(g, core.DefaultEncoding(g, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Deadlock needs an order where a load precedes a store it depends on;
	// Schedule.MoveTensor refuses to create one directly, so force it by
	// swapping the raw order and rebuilding the evaluator - the incremental
	// evaluator must then report the same deadlock as Evaluate.
	var loadPos = -1
	after := afterStores(s)
	for p, id := range s.Order {
		if len(after[id]) > 0 {
			loadPos = p
			break
		}
	}
	if loadPos < 0 {
		t.Skip("no dependent reload in this schedule")
	}
	dep := after[s.Order[loadPos]][0]
	depPos := -1
	for p, id := range s.Order {
		if id == dep {
			depPos = p
		}
	}
	s.Order[loadPos], s.Order[depPos] = s.Order[depPos], s.Order[loadPos]

	cs := coresched.New(hw.Edge())
	inc, err := NewIncremental(s, cs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ierr := inc.Metrics()
	_, ferr := Evaluate(s, cs, Options{})
	if (ierr == nil) != (ferr == nil) {
		t.Fatalf("deadlock disagreement: incremental=%v full=%v", ierr, ferr)
	}
	if ferr == nil {
		t.Skip("swap did not deadlock this schedule")
	}
	// Recover: move the store back before the load via a legal move.
	if !inc.MoveTensor(depPos, loadPos) {
		t.Fatal("recovery move rejected")
	}
	im, ierr := inc.EvaluateProposal()
	fm, ferr := Evaluate(s, cs, Options{})
	if ierr != nil || ferr != nil {
		t.Fatalf("recovery still deadlocks: incremental=%v full=%v", ierr, ferr)
	}
	if !metricsEqual(im, fm) {
		t.Fatalf("post-recovery metrics diverge:\nincremental %+v\nfull        %+v", im, fm)
	}
	inc.Accept()
}

// TestIncrementalRejoin: on a fused encoding of the prefill cut, a Start or
// End jitter that leaves every tile and tensor completion time as it was
// stops where it rejoins the accepted run, having merged fewer events than
// the suffix it resumed; an order move, and a jitter that changes some
// completion time, run to the end. Every proposal, and the accepted state
// after accepting each rejoined one, equals the reference merge. (On the
// unfused cut the DRAM channel decides every time, so no jitter changes
// one.)
func TestIncrementalRejoin(t *testing.T) {
	g := prefillGraph()
	s := parse(t, g, randomEncoding(g, 2))
	cs := coresched.New(hw.Edge())
	inc, err := NewIncremental(s, cs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, m *Metrics, err error) *Metrics {
		t.Helper()
		rm, rerr := referenceEvaluate(s, cs, 0)
		if d := sameResult(m, err, rm, rerr); d != "" {
			t.Fatalf("%s: %s", what, d)
		}
		return rm
	}
	am, aerr := inc.Metrics()
	acc := check("start", am, aerr)

	// evaluate scores the pending move and reports whether its times equal
	// the accepted ones, whether it resumed, whether it rejoined, the events
	// its run merged and the length of the suffix it resumed.
	type outcome struct {
		ok, neutral, resumed, rejoined bool
		merged, suffix                 int64
	}
	evaluate := func(what string) outcome {
		t.Helper()
		before := inc.Stats()
		m, err := inc.EvaluateProposal()
		rm := check(what, m, err)
		after := inc.Stats()
		return outcome{
			ok: err == nil,
			neutral: err == nil && slices.Equal(rm.TileEnd, acc.TileEnd) &&
				slices.Equal(rm.TensorEnd, acc.TensorEnd),
			resumed:  after.Resumed > before.Resumed,
			rejoined: after.Rejoined > before.Rejoined,
			merged:   after.EventsSimulated - before.EventsSimulated,
			suffix:   int64(inc.n - inc.resumeI + inc.m - inc.resumeJ),
		}
	}

	var neutralStarts, neutralEnds, changing, orderMoves int
	for p := len(s.Order) / 4; p < len(s.Order)-1; p++ {
		id := s.Order[p]
		tn := &s.Tensors[id]
		// Jitter by one either way, and to the latest Start or the earliest
		// End, which more often changes a time.
		extreme := tn.Producer + 1
		if tn.Kind.IsLoad() {
			extreme = tn.FirstUse
		}
		for _, v := range []int{tn.Living() - 1, tn.Living() + 1, extreme} {
			if !inc.SetLiving(id, v) {
				continue
			}
			what := fmt.Sprintf("jitter of tensor %d at order position %d to %d", id, p, v)
			o := evaluate(what)
			switch {
			case !o.neutral:
				if o.rejoined {
					t.Fatalf("%s changes a completion time but rejoined", what)
				}
				if o.ok {
					changing++
				}
			case o.resumed:
				if !o.rejoined || o.merged >= o.suffix {
					t.Fatalf("%s keeps every completion time: rejoined %v after %d of %d suffix events",
						what, o.rejoined, o.merged, o.suffix)
				}
				if tn.Kind.IsLoad() {
					neutralStarts++
				} else {
					neutralEnds++
				}
			}
			if o.rejoined && p%2 == 0 {
				inc.Accept()
				m, err := inc.Metrics()
				check(what+", accepted", m, err)
			} else {
				inc.Reject()
			}
		}
		if inc.MoveTensor(p, p+1) {
			what := fmt.Sprintf("order move %d -> %d", p, p+1)
			if o := evaluate(what); o.rejoined {
				t.Fatalf("%s rejoined", what)
			}
			inc.Reject()
			orderMoves++
		}
	}
	if neutralStarts == 0 || neutralEnds == 0 || changing == 0 || orderMoves == 0 {
		t.Fatalf("timing-neutral Start jitters %d, End jitters %d, time-changing jitters %d, order moves %d: want each",
			neutralStarts, neutralEnds, changing, orderMoves)
	}
	t.Logf("timing-neutral Start jitters %d, End jitters %d, time-changing jitters %d, order moves %d; %+v",
		neutralStarts, neutralEnds, changing, orderMoves, inc.Stats())
}
