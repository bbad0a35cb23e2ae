package sim

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"soma/internal/core"
	"soma/internal/coresched"
)

// Incremental is a stateful, move-aware schedule evaluator for the DLSA
// exploration stage. Where Evaluate replays the whole schedule on every
// call, Incremental caches the simulation of the current (accepted) schedule
// - the per-tile and per-tensor completion times, the DRAM-channel frontier
// at periodic checkpoints, and the buffer-occupancy profile - and, when one
// DLSA move perturbs the schedule, resumes the same merge Evaluate runs from
// the latest checkpoint the move cannot have affected, splicing the cached
// prefix.
//
// Why that is sound: the merge interleaves two serial resources
// (compute pipeline, DRAM channel) whose commit times form a monotone fixed
// point - the times do not depend on the interleaving the loop happened to
// take, only on the schedule's attributes. A DLSA move changes the DRAM
// Tensor Order from its earliest moved position P onward, or one tensor's
// Living Duration. Any checkpoint whose order cursor j <= P (and, for a
// store's End move, whose tile cursor i has not passed the new gate)
// therefore captures a commit set and times the perturbed schedule shares,
// and the suffix re-simulation from it reproduces Evaluate bit for bit. Structural
// moves (different tile set, different tensor set) cannot be delta-ed; they
// go through full Evaluate and a fresh Incremental.
//
// A Living Duration move (SetLiving) also stops early. The resumed run
// compares each completion time it writes with the accepted run's; when the
// moved tensor and the last tile whose gating the move changed have
// committed with every time so far equal, the proposal has rejoined the
// accepted timeline: the rest of the schedule, and every time it can read,
// is the accepted run's, so it would end in the accepted end state (see
// watch). The proposal's metrics are then the accepted end state's with
// the proposal's buffer usage, and accepting it leaves the accepted times
// as they are. Order moves reorder the DRAM occupancy sums, so they always
// run to the end.
//
// The proposal workflow mirrors simulated annealing: apply exactly one move
// (MoveTensor / SetLiving), evaluate it (EvaluateProposal), then Accept or
// Reject. Reject re-applies the move's inverse - the reverse rotation, or
// the old Living Duration through the same code path as the move - so a
// rejected move rolls back in O(moved range); an accepted one splices the
// scratch suffix into the cached state. An Incremental is NOT safe for
// concurrent use - portfolio chains each own one.
//
// The merge reads each tensor's order position and stalls a reload until
// its layer's last store in the order has committed (see replay). The
// evaluator keeps both for the live order: an order move re-reads the
// positions of the span it rotates and updates the last store in O(1), or
// in O(stores of the layer) when it carries the last store earlier, and
// Reject restores both.
//
// Key keeps the live schedule's evaluation-cache key the same way: built on
// its first call, then edited in place by each move and its undo.
type Incremental struct {
	// The merge over the live schedule. Its gate rows, order positions and
	// last stores follow the moves; its run arrays hold the pending
	// proposal's suffix, and its accepted arrays the cached simulation of
	// the accepted schedule.
	replay
	usage []int64 // buffer occupancy per tile seq
	key   liveKey

	// accValid means the accepted arrays and checkpoints describe a
	// completed, deadlock-free merge.
	accEnd      mergeState
	accErr      error
	accValid    bool
	checkpoints []checkpoint

	pending       pendingMove
	propEvaluated bool
	propErr       error
	propEnd       mergeState
	propRejoined  bool // the run stopped where it rejoined the accepted one
	propCkpts     []checkpoint
	propResumeIdx int // checkpoint index resumed from; -1 = from scratch
	resumeI       int // prefix bounds of the current proposal's resume point
	resumeJ       int

	stats IncStats
}

// checkpoint is a mergeState recorded on the accepted schedule's trajectory.
type checkpoint = mergeState

// ckptStride is the number of merge events (tile + tensor commits) between
// recorded checkpoints: small enough that a resumed proposal wastes at most
// a few dozen events re-reaching its divergence point, large enough that
// checkpoint bookkeeping stays off the profile.
const ckptStride = 32

// pendingMove describes the single in-flight proposal.
type pendingMove struct {
	kind     moveKind
	id       int // moved tensor
	from, to int // order positions (order moves)
	// old is the Living Duration before a Living move, and the layer's
	// last store before a store's order move.
	old int
	// gate is the later of the tile seqs a Living move took the tensor's
	// gate from and to; -1 when its gate did not move.
	gate int
}

type moveKind int

const (
	moveNone moveKind = iota
	moveOrder
	moveLiving
)

// IncStats counts the evaluator's delta effectiveness.
type IncStats struct {
	// Proposals is the number of EvaluateProposal calls; Resumed of those
	// spliced a checkpointed prefix, Fallbacks re-simulated from scratch.
	// Rejoined of the resumed ones stopped where they rejoined the
	// accepted run.
	Proposals, Resumed, Fallbacks, Rejoined int64
	// EventsTotal is Proposals x (tiles + tensors): the merge events a full
	// evaluator would have replayed. EventsSimulated counts the events the
	// proposals' runs merged, up to the end, a deadlock or a rejoin.
	EventsTotal, EventsSimulated int64
	// Rollbacks is the number of Reject calls.
	Rollbacks int64
}

// NewIncremental builds an incremental evaluator owning s. The schedule must
// only be mutated through the evaluator's move methods from here on.
// Options.Trace is not supported (the renderer runs full evaluations);
// Options.TileCosts is precomputed when absent.
func NewIncremental(s *core.Schedule, cs *coresched.Scheduler, opt Options) (*Incremental, error) {
	if opt.Trace {
		return nil, fmt.Errorf("sim: incremental evaluator does not support tracing")
	}
	inc := &Incremental{}
	if err := inc.init(s, cs, opt); err != nil {
		return nil, err
	}
	inc.usage = s.BufferUsage()
	inc.accTileEnd, inc.accTensorEnd = make([]float64, inc.n), make([]float64, inc.m)
	return inc, nil
}

// Key returns the evaluation-cache key of the live schedule, pending move
// included: the bytes of Key(CacheScope+Schedule().CanonicalKey(),
// BufferBudget), so incremental proposals share cache entries with every
// other cache user. The first call encodes the schedule; from then on each
// move and each Reject edits the key in place: an order move shifts the
// bytes of the positions it rotates, a jitter rewrites one Living Duration
// and shifts the key's tail only when its encoding changes length. The
// returned slice is the live key itself, valid until the next move or
// Reject; a caller that keeps it copies it.
func (inc *Incremental) Key() []byte {
	k := &inc.key
	if k.b == nil {
		k.orderAt, k.durAt = make([]int, inc.m+1), make([]int, inc.m+1)
		k.b = inc.s.AppendCanonicalKey([]byte(inc.opt.CacheScope), k.orderAt[:inc.m], k.durAt[:inc.m])
		k.durAt[inc.m] = len(k.b)
		k.orderAt[inc.m] = k.durAt[0]
		k.b = AppendBudget(k.b, inc.opt.BufferBudget)
	}
	return k.b
}

// liveKey is Key's state: the key bytes once built (nil before), the
// offset in them of each order position's encoding, and of each tensor's
// Living Duration encoding. The extra last entries are the offsets of the
// Living Durations and of the budget: where each section ends.
type liveKey struct {
	b              []byte
	orderAt, durAt []int
}

// syncMove mirrors in the key the rotation that moved the tensor at order
// position from to position to. The tensor's encoding moves from one end
// of the span to the other and the bytes between shift by its length, so
// the span keeps its byte length and only the offsets inside it change.
func (k *liveKey) syncMove(order []int, from, to int) {
	if k.b == nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	enc := core.AppendKeyInt(buf[:0], order[to])
	n, at := len(enc), k.orderAt
	if from < to {
		lo, hi := at[from], at[to+1]
		copy(k.b[lo:], k.b[lo+n:hi])
		for p := from; p < to; p++ {
			at[p] = at[p+1] - n
		}
		at[to] = hi - n
		copy(k.b[hi-n:], enc)
	} else {
		lo, hi := at[to], at[from+1]
		copy(k.b[lo+n:], k.b[lo:hi-n])
		for p := from; p > to; p-- {
			at[p] = at[p-1] + n
		}
		copy(k.b[lo:], enc)
	}
}

// syncDur re-encodes tensor id's Living Duration v, shifting the rest of
// the key when the encoding changes length.
func (k *liveKey) syncDur(id, v int) {
	if k.b == nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	enc := core.AppendKeyInt(buf[:0], v)
	at, tail := k.durAt[id], k.durAt[id+1]
	if d := len(enc) - (tail - at); d != 0 {
		n := len(k.b)
		if d > 0 {
			k.b = append(k.b, enc[:d]...) // room only; overwritten below
		}
		copy(k.b[tail+d:], k.b[tail:n])
		k.b = k.b[:n+d]
		for i := id + 1; i < len(k.durAt); i++ {
			k.durAt[i] += d
		}
	}
	copy(k.b[at:], enc)
}

// Schedule returns the live schedule the evaluator owns.
func (inc *Incremental) Schedule() *core.Schedule { return inc.s }

// PosOf returns tensor id's current DRAM Tensor Order position.
func (inc *Incremental) PosOf(id int) int { return inc.pos[id] }

// Stats returns the delta-effectiveness counters.
func (inc *Incremental) Stats() IncStats { return inc.stats }

// MoveTensor proposes relocating the tensor at order position from to
// position to (the DRAM Tensor Order operator). It returns false - and
// leaves no pending proposal - when the move is illegal or a no-op.
func (inc *Incremental) MoveTensor(from, to int) bool {
	if inc.pending.kind != moveNone {
		panic("sim: MoveTensor with a proposal already pending")
	}
	if !inc.s.MoveTensor(from, to) {
		return false
	}
	inc.key.syncMove(inc.s.Order, from, to)
	inc.syncPos(from, to)
	id := inc.s.Order[to]
	inc.pending = pendingMove{kind: moveOrder, id: id, from: from, to: to}
	if t := &inc.s.Tensors[id]; !t.Kind.IsLoad() {
		last := inc.lastStore[t.Layer]
		inc.pending.old = last
		switch {
		case last == id && to < from:
			// The last store moved earlier: another may now be last.
			w := inc.s.Stores[t.Layer]
			for st := w.Lo; st < w.Hi; st++ {
				if inc.pos[st] > inc.pos[last] {
					last = st
				}
			}
		case last != id && to > inc.pos[last]:
			last = id
		}
		inc.lastStore[t.Layer] = last
	}
	return true
}

// syncPos re-reads the order positions of the span between order
// positions a and b, the span an order move rotates.
func (inc *Incremental) syncPos(a, b int) {
	lo, pos := min(a, b), inc.pos
	for k, id := range inc.s.Order[lo : max(a, b)+1] {
		pos[id] = lo + k
	}
}

// SetLiving proposes jittering tensor id's Living Duration to v, clamped
// like Schedule.SetLiving. Returns false when the clamped value leaves the
// schedule unchanged.
func (inc *Incremental) SetLiving(id, v int) bool {
	if inc.pending.kind != moveNone {
		panic("sim: SetLiving with a proposal already pending")
	}
	if id < 0 || id >= inc.m {
		return false
	}
	old := inc.s.Tensors[id].Living()
	gate, ok := inc.setLiving(id, v)
	if ok {
		inc.pending = pendingMove{kind: moveLiving, id: id, old: old, gate: gate}
	}
	return ok
}

// setLiving sets tensor id's Living Duration to v, clamped, and moves the
// occupancy profile, the gate rows and the live key with it. It reports
// whether the value changed and, if so, the later of the old and new gate
// tiles when the gate moved (-1 when it did not).
func (inc *Incremental) setLiving(id, v int) (gate int, ok bool) {
	t := &inc.s.Tensors[id]
	lo, hi := t.Live()
	g := t.Gate(inc.n)
	if !inc.s.SetLiving(id, v) {
		return 0, false
	}
	inc.key.syncDur(id, t.Living())
	// Only one end of the occupied interval moves: add the seqs it gains,
	// remove the ones it loses.
	b := t.Bytes
	nlo, nhi := t.Live()
	if nlo < lo {
		inc.rangeAdd(nlo, lo, b)
	} else {
		inc.rangeAdd(lo, nlo, -b)
	}
	if nhi > hi {
		inc.rangeAdd(hi, nhi, b)
	} else {
		inc.rangeAdd(nhi, hi, -b)
	}
	ng := t.Gate(inc.n)
	if ng == g {
		return -1, true
	}
	if g >= 0 {
		inc.removeGate(g, id)
	}
	if ng >= 0 {
		inc.gates[ng] = append(inc.gates[ng], id)
	}
	return max(g, ng), true
}

// rangeAdd adds delta to the occupancy of tile seqs [lo, hi), clamped like
// Schedule.BufferUsage's interval accumulation.
func (inc *Incremental) rangeAdd(lo, hi int, delta int64) {
	if lo < 0 {
		lo = 0
	}
	if hi > inc.n {
		hi = inc.n
	}
	for seq := lo; seq < hi; seq++ {
		inc.usage[seq] += delta
	}
}

func (inc *Incremental) removeGate(seq, id int) {
	b := inc.gates[seq]
	for k, v := range b {
		if v == id {
			b[k] = b[len(b)-1]
			inc.gates[seq] = b[:len(b)-1]
			return
		}
	}
	panic("sim: gate to remove not found")
}

// Metrics evaluates the accepted schedule (no proposal pending), simulating
// it from scratch if its cached state is stale. The returned Metrics is a
// fresh value the caller may keep.
func (inc *Incremental) Metrics() (*Metrics, error) {
	if inc.pending.kind != moveNone {
		panic("sim: Metrics with a proposal pending")
	}
	if !inc.accValid {
		err := inc.resim(mergeState{}, nil)
		inc.propResumeIdx = -1
		inc.mergeScratch(err)
	}
	if inc.accErr != nil {
		return &Metrics{}, inc.accErr
	}
	return inc.metrics(inc.usage, inc.accEnd), nil
}

// EvaluateProposal evaluates the schedule with the pending move applied,
// re-simulating only from the latest checkpoint the move cannot affect, and
// for a duration move only until it rejoins the accepted run. Its
// signature matches sim.Memoize's eval callback, so stage-2 search keeps
// its memoization (and cache accounting) unchanged while every miss costs a
// suffix instead of a full replay.
func (inc *Incremental) EvaluateProposal() (*Metrics, error) {
	if inc.pending.kind == moveNone {
		panic("sim: EvaluateProposal without a pending move")
	}
	ck, idx := inc.resumePoint()
	var w *watch
	if idx >= 0 {
		w = inc.durationWatch()
	}
	err := inc.resim(ck, w)
	inc.propEvaluated = true
	inc.propErr = err
	inc.propResumeIdx = idx
	st := &inc.stats
	st.Proposals++
	st.EventsTotal += int64(inc.n + inc.m)
	st.EventsSimulated += int64((inc.propEnd.i - ck.i) + (inc.propEnd.j - ck.j))
	if idx >= 0 {
		st.Resumed++
	} else {
		st.Fallbacks++
	}
	switch {
	case err != nil:
		return &Metrics{}, err
	case inc.propRejoined:
		st.Rejoined++
		return inc.metrics(inc.usage, inc.accEnd), nil
	}
	return inc.metrics(inc.usage, inc.propEnd), nil
}

// durationWatch returns the early-stop watch of the pending move, nil for
// an order move: the moved tensor's order position and the later of its
// old and new gate tiles when a store's End move took its gate along.
func (inc *Incremental) durationWatch() *watch {
	if mv := &inc.pending; mv.kind == moveLiving {
		return &watch{p: inc.pos[mv.id], gate: mv.gate}
	}
	return nil
}

// resumePoint picks the latest accepted checkpoint still valid under the
// pending move: its order cursor must not have reached the first perturbed
// order position, and (for a Living move) its tile cursor must not have
// passed the tensor's new gate. Both cursors are nondecreasing along the
// checkpoint list, so the valid region is a prefix.
func (inc *Incremental) resumePoint() (checkpoint, int) {
	if !inc.accValid {
		return mergeState{}, -1
	}
	maxJ, maxI := inc.m, inc.n
	switch inc.pending.kind {
	case moveOrder:
		maxJ = inc.pending.from
		if inc.pending.to < maxJ {
			maxJ = inc.pending.to
		}
	case moveLiving:
		// For a load the gate is its first use, which no checkpoint short
		// of the load has passed, so only a store's new End bounds i.
		maxJ = inc.pos[inc.pending.id]
		if g := inc.s.Tensors[inc.pending.id].Gate(inc.n); g >= 0 {
			maxI = g
		}
	default: // stale base: only a from-scratch replay is valid
		return mergeState{}, -1
	}
	idx := sort.Search(len(inc.checkpoints), func(k int) bool {
		return inc.checkpoints[k].j > maxJ || inc.checkpoints[k].i > maxI
	}) - 1
	if idx < 0 {
		return mergeState{}, -1
	}
	return inc.checkpoints[idx], idx
}

// resim resumes the merge at ck over the live schedule under watch w (nil
// for none): the accepted arrays hold the prefix, the run arrays receive
// the suffix and propCkpts its checkpoints.
func (inc *Incremental) resim(ck mergeState, w *watch) error {
	inc.resumeI, inc.resumeJ = ck.i, ck.j
	inc.propCkpts = inc.propCkpts[:0]
	var err error
	inc.propEnd, inc.propRejoined, err = inc.run(ck, &inc.propCkpts, w)
	return err
}

// Accept commits the pending move: the live schedule keeps it, and - when
// the proposal was actually simulated (a cache hit may have skipped it) -
// the scratch suffix is spliced into the cached accepted state. An accepted
// but unsimulated (or deadlocked) proposal invalidates the cache instead;
// the next evaluation replays from scratch.
func (inc *Incremental) Accept() {
	if inc.pending.kind == moveNone {
		panic("sim: Accept without a pending move")
	}
	if inc.propEvaluated {
		inc.mergeScratch(inc.propErr)
	} else {
		inc.accValid = false
		inc.accErr = nil
		inc.checkpoints = inc.checkpoints[:0]
	}
	inc.pending = pendingMove{}
	inc.propEvaluated = false
	inc.propErr = nil
}

// mergeScratch promotes the scratch suffix of the just-simulated proposal
// into the accepted state. A rejoined proposal's times equal the accepted
// ones, so only its checkpoints are spliced.
//
// The checkpoints kept are those before the resume point, the proposal's
// own, and the accepted ones at or past the run's end in both cursors:
// none after a complete run, the rest of the accepted timeline after a
// rejoin. Each is a state the new schedule's merge can reach, one where
// every committed tensor and tile has its own dependencies committed. An
// accepted checkpoint past the moved load but short of the tile it now
// waits on is not: a later proposal resumed from it could miss a deadlock
// a full replay reports. The stop point's cursors are past both.
func (inc *Incremental) mergeScratch(err error) {
	if err != nil {
		inc.accValid = false
		inc.accErr = err
		inc.checkpoints = inc.checkpoints[:0]
		return
	}
	end := inc.propEnd
	if !inc.propRejoined {
		copy(inc.accTileEnd[inc.resumeI:], inc.tileEnd[inc.resumeI:])
		for p := inc.resumeJ; p < inc.m; p++ {
			id := inc.s.Order[p]
			inc.accTensorEnd[id] = inc.tensorEnd[id]
		}
		inc.accEnd = end
	}
	keep := inc.propResumeIdx + 1
	tail := inc.checkpoints[keep:]
	past := keep + sort.Search(len(tail), func(k int) bool {
		return tail[k].i >= end.i && tail[k].j >= end.j
	})
	inc.checkpoints = slices.Replace(inc.checkpoints, keep, past, inc.propCkpts...)
	inc.accErr = nil
	inc.accValid = true
}

// Reject rolls the pending move back in O(perturbed range) by re-applying
// its inverse: the reverse rotation, or the old Living Duration. The cached
// accepted state was never touched.
func (inc *Incremental) Reject() {
	mv := inc.pending
	switch mv.kind {
	case moveNone:
		panic("sim: Reject without a pending move")
	case moveOrder:
		core.Rotate(inc.s.Order, mv.to, mv.from)
		inc.key.syncMove(inc.s.Order, mv.to, mv.from)
		inc.syncPos(mv.to, mv.from)
		if t := &inc.s.Tensors[mv.id]; !t.Kind.IsLoad() {
			inc.lastStore[t.Layer] = mv.old
		}
	case moveLiving:
		inc.setLiving(mv.id, mv.old)
	}
	inc.pending = pendingMove{}
	inc.propEvaluated = false
	inc.propErr = nil
	inc.stats.Rollbacks++
}
