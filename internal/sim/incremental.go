package sim

import (
	"encoding/binary"
	"fmt"
	"sort"

	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/hw"
	"soma/internal/obs"
)

// Incremental is a stateful, move-aware schedule evaluator for the DLSA
// exploration stage. Where Evaluate replays the whole schedule on every
// call, Incremental caches the simulation of the current (accepted) schedule
// - the per-tile and per-tensor completion times, the DRAM-channel frontier
// at periodic checkpoints, and the buffer-occupancy profile - and, when one
// DLSA move perturbs the schedule, re-simulates only from the latest
// checkpoint the move cannot have affected, splicing the cached prefix.
//
// Why that is sound: the merge in Evaluate interleaves two serial resources
// (compute pipeline, DRAM channel) whose commit times form a monotone fixed
// point - the times do not depend on the interleaving the loop happened to
// take, only on the schedule's attributes. A DLSA move changes the DRAM
// Tensor Order from its earliest moved position P onward, or one tensor's
// Start/End. Any checkpoint whose order cursor j <= P (and, for a store's
// End move, whose tile cursor i has not passed the new gate) therefore
// captures a commit set and times the perturbed schedule shares, and the
// suffix re-simulation from it reproduces Evaluate bit for bit. Structural
// moves (different tile set, different tensor set) cannot be delta-ed; they
// go through full Evaluate and a fresh Incremental.
//
// The proposal workflow mirrors simulated annealing: apply exactly one move
// (MoveTensor / SetStart / SetEnd), evaluate it (EvaluateProposal), then
// Accept or Reject. Rejected moves roll back in O(moved range); accepted
// moves splice the scratch suffix into the cached state. An Incremental is
// NOT safe for concurrent use - portfolio chains each own one.
//
// A load's wait on its producer's stores is one check: a reload waits on
// every store of its Source layer (Schedule.WaitsOn), and stores ordered
// before the load never delay it (see Evaluate), so the load stalls iff the
// layer's last store in the live order has not committed. The evaluator
// keeps that last store per layer: a store's order move updates it in
// O(1), or in O(stores of the layer) when it carries the last store
// earlier, and Reject restores it.
//
// Key keeps the live schedule's evaluation-cache key the same way: built on
// its first call, then edited in place by each move and its undo.
type Incremental struct {
	s   *core.Schedule
	cs  *coresched.Scheduler
	cfg hw.Config
	opt Options
	tc  *TileCosts

	n, m int // tiles, tensors

	// Structures maintained for the live schedule across moves.
	blockers [][]int // tile seq -> gating tensor IDs (len n+1): blockers rows
	usage    []int64 // buffer occupancy per tile seq
	posAcc   []int   // accepted order position of each tensor ID
	// lastStore is, per layer, the ID of its store that comes last in the
	// live order (-1 without stores).
	lastStore []int
	key       liveKey

	// Cached simulation of the accepted schedule. accValid means the arrays
	// and checkpoints describe a completed, deadlock-free merge.
	accTileEnd   []float64
	accTensorEnd []float64
	accEnd       mergeState
	accErr       error
	accValid     bool
	checkpoints  []checkpoint

	// Scratch for the pending proposal's suffix.
	scrTileEnd   []float64
	scrTensorEnd []float64
	scrStamp     []int64 // committed-this-proposal epoch stamps
	epoch        int64

	pending       pendingMove
	propEvaluated bool
	propErr       error
	propEnd       mergeState
	propCkpts     []checkpoint
	propResumeIdx int // checkpoint index resumed from; -1 = from scratch
	resumeI       int // prefix bounds of the current proposal's resume point
	resumeJ       int

	stats IncStats
}

// mergeState is the scalar simulation state between merge events.
type mergeState struct {
	i, j                  int
	computeFree, dramFree float64
	dramBusy              float64
	dramBytes             int64
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
	old, new int // start/end values; old is also the layer's last store
	// before a store's order move
}

type moveKind int

const (
	moveNone moveKind = iota
	moveOrder
	moveStart
	moveEnd
)

// IncStats counts the evaluator's delta effectiveness.
type IncStats struct {
	// Proposals is the number of EvaluateProposal calls; Resumed of those
	// spliced a checkpointed prefix, Fallbacks re-simulated from scratch.
	Proposals, Resumed, Fallbacks int64
	// EventsTotal is Proposals x (tiles + tensors): the merge events a full
	// evaluator would have replayed. EventsSimulated is what this one did.
	EventsTotal, EventsSimulated int64
}

// IncTelemetry mirrors IncStats (plus rollbacks) as shared registry
// counters, so every incremental evaluator in a run - one per portfolio
// chain - aggregates into the same sim_inc_* family. All fields may be nil
// (obs counters are nil-safe), and a nil *IncTelemetry disables the bundle.
// An EvaluateProposal already replays O(tiles+tensors) merge events, so its
// handful of atomic adds is noise on the path it observes.
type IncTelemetry struct {
	Proposals, Resumed, Fallbacks, Rollbacks *obs.Counter
	EventsTotal, EventsSimulated             *obs.Counter
}

// NewIncTelemetry registers the incremental evaluator's metric family on
// reg. Nil-safe: a nil registry yields a nil IncTelemetry.
func NewIncTelemetry(reg *obs.Registry) *IncTelemetry {
	if reg == nil {
		return nil
	}
	return &IncTelemetry{
		Proposals: reg.Counter("sim_inc_proposals_total",
			"Incremental-evaluator proposal evaluations."),
		Resumed: reg.Counter("sim_inc_resumed_total",
			"Proposals resumed from a cached checkpoint."),
		Fallbacks: reg.Counter("sim_inc_fallbacks_total",
			"Proposals re-simulated from scratch (no valid checkpoint)."),
		Rollbacks: reg.Counter("sim_inc_rollbacks_total",
			"Rejected proposals rolled back in place."),
		EventsTotal: reg.Counter("sim_inc_events_total",
			"Merge events a full evaluator would have replayed."),
		EventsSimulated: reg.Counter("sim_inc_events_simulated_total",
			"Merge events actually re-simulated."),
	}
}

// NewIncremental builds an incremental evaluator owning s. The schedule must
// only be mutated through the evaluator's move methods from here on.
// Options.Trace is not supported (the renderer runs full evaluations);
// Options.TileCosts is precomputed when absent.
func NewIncremental(s *core.Schedule, cs *coresched.Scheduler, opt Options) (*Incremental, error) {
	if opt.Trace {
		return nil, fmt.Errorf("sim: incremental evaluator does not support tracing")
	}
	n, m := s.NumTiles(), len(s.Tensors)
	if len(s.Order) != m {
		return nil, fmt.Errorf("sim: order length %d != tensors %d", len(s.Order), m)
	}
	tc := opt.TileCosts
	if tc == nil {
		tc = PrecomputeTileCosts(s, cs)
	} else if len(tc.Dur) != n {
		return nil, fmt.Errorf("sim: tile-cost cache covers %d tiles, schedule has %d", len(tc.Dur), n)
	}
	inc := &Incremental{
		s: s, cs: cs, cfg: cs.Config(), opt: opt, tc: tc, n: n, m: m,
		usage:        s.BufferUsage(),
		posAcc:       make([]int, m),
		accTileEnd:   make([]float64, n),
		accTensorEnd: make([]float64, m),
		scrTileEnd:   make([]float64, n),
		scrTensorEnd: make([]float64, m),
		scrStamp:     make([]int64, m),
	}
	var csr blockers
	csr.build(s, n)
	inc.blockers = make([][]int, n+1)
	for i := range inc.blockers {
		inc.blockers[i] = csr.row(i)
	}
	inc.lastStore = make([]int, len(s.G.Layers))
	for l := range inc.lastStore {
		inc.lastStore[l] = -1
	}
	for p, id := range s.Order {
		inc.posAcc[id] = p
		if t := &s.Tensors[id]; !t.Kind.IsLoad() {
			inc.lastStore[t.Layer] = id
		}
	}
	return inc, nil
}

// Key returns the evaluation-cache key of the live schedule, pending move
// included: the bytes of Key(CacheScope+Schedule().CanonicalKey(),
// BufferBudget), so incremental proposals share cache entries with every
// other cache user. The first call encodes the schedule; from then on each
// move and each Reject edits the key in place: an order move shifts the
// bytes of the positions it rotates, a jitter rewrites one Living Duration
// and shifts the key's tail only when its encoding changes length.
func (inc *Incremental) Key() string {
	k := &inc.key
	if k.b == nil {
		k.orderAt, k.durAt = make([]int, inc.m+1), make([]int, inc.m+1)
		k.b = inc.s.AppendCanonicalKey([]byte(inc.opt.CacheScope), k.orderAt[:inc.m], k.durAt[:inc.m])
		k.durAt[inc.m] = len(k.b)
		k.orderAt[inc.m] = k.durAt[0]
		k.b = appendBudget(k.b, inc.opt.BufferBudget)
	}
	return string(k.b)
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

// PosOf returns tensor id's current DRAM Tensor Order position. Only valid
// between proposals (the annealer looks positions up before proposing).
func (inc *Incremental) PosOf(id int) int { return inc.posAcc[id] }

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
				if inc.livePos(st) > inc.livePos(last) {
					last = st
				}
			}
		case last != id && to > inc.livePos(last):
			last = id
		}
		inc.lastStore[t.Layer] = last
	}
	return true
}

// livePos is the order position of tensor id under the pending order move:
// the rotation puts the moved tensor at to, shifts the span between from and
// to by one and keeps every other position.
func (inc *Incremental) livePos(id int) int {
	pm := &inc.pending
	p := inc.posAcc[id]
	switch {
	case id == pm.id:
		return pm.to
	case pm.from < pm.to && p > pm.from && p <= pm.to:
		return p - 1
	case pm.to < pm.from && p >= pm.to && p < pm.from:
		return p + 1
	}
	return p
}

// SetStart proposes jittering a load's Living Duration start. Returns false
// when the clamped value leaves the schedule unchanged.
func (inc *Incremental) SetStart(id, start int) bool {
	if inc.pending.kind != moveNone {
		panic("sim: SetStart with a proposal already pending")
	}
	if id < 0 || id >= inc.m {
		return false
	}
	t := &inc.s.Tensors[id]
	old := t.Start
	if !inc.s.SetStart(id, start) || t.Start == old {
		return false
	}
	inc.key.syncDur(id, t.Start)
	// The load occupies [Start, Release); shift the occupancy delta.
	if t.Start < old {
		inc.rangeAdd(t.Start, old, t.Bytes)
	} else {
		inc.rangeAdd(old, t.Start, -t.Bytes)
	}
	inc.pending = pendingMove{kind: moveStart, id: id, old: old, new: t.Start}
	return true
}

// SetEnd proposes jittering a store's Living Duration end. Returns false
// when the clamped value leaves the schedule unchanged.
func (inc *Incremental) SetEnd(id, end int) bool {
	if inc.pending.kind != moveNone {
		panic("sim: SetEnd with a proposal already pending")
	}
	if id < 0 || id >= inc.m {
		return false
	}
	t := &inc.s.Tensors[id]
	old := t.End
	if !inc.s.SetEnd(id, end) || t.End == old {
		return false
	}
	inc.key.syncDur(id, t.End)
	// The store occupies [Producer, max(End, OnChipHi)).
	oldHi, newHi := old, t.End
	if t.OnChipHi > oldHi {
		oldHi = t.OnChipHi
	}
	if t.OnChipHi > newHi {
		newHi = t.OnChipHi
	}
	if newHi > oldHi {
		inc.rangeAdd(oldHi, newHi, t.Bytes)
	} else if newHi < oldHi {
		inc.rangeAdd(newHi, oldHi, -t.Bytes)
	}
	// The gate moves from tile old to tile t.End (when inside the range).
	if old < inc.n {
		inc.removeBlocker(old, id)
	}
	if t.End < inc.n {
		inc.blockers[t.End] = append(inc.blockers[t.End], id)
	}
	inc.pending = pendingMove{kind: moveEnd, id: id, old: old, new: t.End}
	return true
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

func (inc *Incremental) removeBlocker(seq, id int) {
	b := inc.blockers[seq]
	for k, v := range b {
		if v == id {
			b[k] = b[len(b)-1]
			inc.blockers[seq] = b[:len(b)-1]
			return
		}
	}
	panic("sim: blocker to remove not found")
}

// Metrics evaluates the accepted schedule (no proposal pending), simulating
// it from scratch if its cached state is stale. The returned Metrics is a
// fresh value the caller may keep.
func (inc *Incremental) Metrics() (*Metrics, error) {
	if inc.pending.kind != moveNone {
		panic("sim: Metrics with a proposal pending")
	}
	if !inc.accValid {
		err := inc.resim(mergeState{})
		inc.propResumeIdx = -1
		inc.mergeScratch(err)
	}
	if inc.accErr != nil {
		return &Metrics{}, inc.accErr
	}
	return finishMetrics(inc.cfg, inc.s.G, inc.opt.BufferBudget, inc.usage, inc.tc.Dur,
		inc.tc.CoreEnergy, inc.tc.ComputeBusy,
		inc.accEnd.computeFree, inc.accEnd.dramFree, inc.accEnd.dramBusy, inc.accEnd.dramBytes), nil
}

// EvaluateProposal evaluates the schedule with the pending move applied,
// re-simulating only from the latest checkpoint the move cannot affect. Its
// signature matches Cache.Memoize's eval callback, so stage-2 search keeps
// its memoization (and cache accounting) unchanged while every miss costs a
// suffix instead of a full replay.
func (inc *Incremental) EvaluateProposal() (*Metrics, error) {
	if inc.pending.kind == moveNone {
		panic("sim: EvaluateProposal without a pending move")
	}
	ck, idx := inc.resumePoint()
	inc.stats.Proposals++
	inc.stats.EventsTotal += int64(inc.n + inc.m)
	inc.stats.EventsSimulated += int64((inc.n - ck.i) + (inc.m - ck.j))
	if idx >= 0 {
		inc.stats.Resumed++
	} else {
		inc.stats.Fallbacks++
	}
	if tel := inc.opt.Telemetry; tel != nil {
		tel.Proposals.Inc()
		tel.EventsTotal.Add(int64(inc.n + inc.m))
		tel.EventsSimulated.Add(int64((inc.n - ck.i) + (inc.m - ck.j)))
		if idx >= 0 {
			tel.Resumed.Inc()
		} else {
			tel.Fallbacks.Inc()
		}
	}
	err := inc.resim(ck)
	inc.propEvaluated = true
	inc.propErr = err
	inc.propResumeIdx = idx
	if err != nil {
		return &Metrics{}, err
	}
	return finishMetrics(inc.cfg, inc.s.G, inc.opt.BufferBudget, inc.usage, inc.tc.Dur,
		inc.tc.CoreEnergy, inc.tc.ComputeBusy,
		inc.propEnd.computeFree, inc.propEnd.dramFree, inc.propEnd.dramBusy, inc.propEnd.dramBytes), nil
}

// resumePoint picks the latest accepted checkpoint still valid under the
// pending move: its order cursor must not have reached the first perturbed
// order position, and (for a store-End move) its tile cursor must not have
// passed the store's new gate. Both cursors are nondecreasing along the
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
	case moveStart:
		maxJ = inc.posAcc[inc.pending.id]
	case moveEnd:
		maxJ = inc.posAcc[inc.pending.id]
		if inc.pending.new < inc.n {
			maxI = inc.pending.new
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

// resim replays the merge from ck over the live schedule, reading prefix
// state from the accepted arrays and writing the suffix into scratch. The
// loop body mirrors Evaluate's merge exactly so the resulting times are
// bit-identical.
func (inc *Incremental) resim(ck mergeState) error {
	s := inc.s
	n, m := inc.n, inc.m
	tileDur := inc.tc.Dur
	bw := inc.cfg.DRAMBandwidth
	inc.epoch++
	epoch := inc.epoch
	inc.resumeI, inc.resumeJ = ck.i, ck.j
	inc.propCkpts = inc.propCkpts[:0]

	i, j := ck.i, ck.j
	computeFree, dramFree := ck.computeFree, ck.dramFree
	dramBusy, dramBytes := ck.dramBusy, ck.dramBytes
	lastCk := i + j

	// committed / tensorEnd / tileEnd split reads between the accepted
	// prefix (strictly before the resume cursors, untouched by the move)
	// and the scratch suffix written this replay.
	committed := func(id int) bool {
		return inc.posAcc[id] < ck.j || inc.scrStamp[id] == epoch
	}
	tensorEnd := func(id int) float64 {
		if inc.posAcc[id] < ck.j {
			return inc.accTensorEnd[id]
		}
		return inc.scrTensorEnd[id]
	}
	tileEnd := func(seq int) float64 {
		if seq < ck.i {
			return inc.accTileEnd[seq]
		}
		return inc.scrTileEnd[seq]
	}

	for i < n || j < m {
		if i+j-lastCk >= ckptStride {
			inc.propCkpts = append(inc.propCkpts, mergeState{
				i: i, j: j, computeFree: computeFree, dramFree: dramFree,
				dramBusy: dramBusy, dramBytes: dramBytes})
			lastCk = i + j
		}
		advanced := false
		// Drain every currently-ready DRAM tensor.
		for j < m {
			t := &s.Tensors[s.Order[j]]
			var depTime float64
			if t.Kind.IsLoad() {
				if i < t.Start {
					break // needs more compute progress
				}
				if t.Kind == core.LoadIfmap {
					if st := inc.lastStore[t.Source]; st >= 0 && !committed(st) {
						break // a producer store is still ahead in the order
					}
				}
				if t.Start > 0 {
					depTime = tileEnd(t.Start - 1)
				}
			} else {
				if i <= t.Producer {
					break // producing tile not finished
				}
				depTime = tileEnd(t.Producer)
			}
			start := maxf(dramFree, depTime)
			dur := float64(t.Bytes) / bw
			inc.scrTensorEnd[t.ID] = start + dur
			inc.scrStamp[t.ID] = epoch
			dramFree = start + dur
			dramBusy += dur
			dramBytes += t.Bytes
			j++
			advanced = true
		}
		// Commit the next tile if its gating tensors are done.
		if i < n {
			ready := true
			var depTime float64
			for _, tid := range inc.blockers[i] {
				if !committed(tid) {
					ready = false
					break
				}
				if te := tensorEnd(tid); te > depTime {
					depTime = te
				}
			}
			if ready {
				start := maxf(computeFree, depTime)
				inc.scrTileEnd[i] = start + tileDur[i]
				computeFree = start + tileDur[i]
				i++
				advanced = true
			}
		}
		if !advanced {
			inc.propEnd = mergeState{i: i, j: j, computeFree: computeFree,
				dramFree: dramFree, dramBusy: dramBusy, dramBytes: dramBytes}
			return &deadlockError{i, n, j, m}
		}
	}
	inc.propEnd = mergeState{i: i, j: j, computeFree: computeFree,
		dramFree: dramFree, dramBusy: dramBusy, dramBytes: dramBytes}
	return nil
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
	if inc.pending.kind == moveOrder {
		lo, hi := inc.pending.from, inc.pending.to
		if hi < lo {
			lo, hi = hi, lo
		}
		for p := lo; p <= hi; p++ {
			inc.posAcc[inc.s.Order[p]] = p
		}
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
// into the accepted state.
func (inc *Incremental) mergeScratch(err error) {
	if err != nil {
		inc.accValid = false
		inc.accErr = err
		inc.checkpoints = inc.checkpoints[:0]
		return
	}
	copy(inc.accTileEnd[inc.resumeI:], inc.scrTileEnd[inc.resumeI:])
	for p := inc.resumeJ; p < inc.m; p++ {
		id := inc.s.Order[p]
		inc.accTensorEnd[id] = inc.scrTensorEnd[id]
	}
	if inc.propResumeIdx < 0 {
		inc.checkpoints = inc.checkpoints[:0]
	} else {
		inc.checkpoints = inc.checkpoints[:inc.propResumeIdx+1]
	}
	inc.checkpoints = append(inc.checkpoints, inc.propCkpts...)
	inc.accEnd = inc.propEnd
	inc.accErr = nil
	inc.accValid = true
}

// Reject rolls the pending move back in O(perturbed range): the order
// rotation is reversed, Start/End restored, and the occupancy and gate
// deltas undone. The cached accepted state was never touched.
func (inc *Incremental) Reject() {
	switch inc.pending.kind {
	case moveNone:
		panic("sim: Reject without a pending move")
	case moveOrder:
		rotateOrder(inc.s.Order, inc.pending.to, inc.pending.from)
		inc.key.syncMove(inc.s.Order, inc.pending.to, inc.pending.from)
		if t := &inc.s.Tensors[inc.pending.id]; !t.Kind.IsLoad() {
			inc.lastStore[t.Layer] = inc.pending.old
		}
	case moveStart:
		t := &inc.s.Tensors[inc.pending.id]
		if inc.pending.new < inc.pending.old {
			inc.rangeAdd(inc.pending.new, inc.pending.old, -t.Bytes)
		} else {
			inc.rangeAdd(inc.pending.old, inc.pending.new, t.Bytes)
		}
		t.Start = inc.pending.old
		inc.key.syncDur(inc.pending.id, t.Start)
	case moveEnd:
		t := &inc.s.Tensors[inc.pending.id]
		oldHi, newHi := inc.pending.old, inc.pending.new
		if t.OnChipHi > oldHi {
			oldHi = t.OnChipHi
		}
		if t.OnChipHi > newHi {
			newHi = t.OnChipHi
		}
		if newHi > oldHi {
			inc.rangeAdd(oldHi, newHi, -t.Bytes)
		} else if newHi < oldHi {
			inc.rangeAdd(newHi, oldHi, t.Bytes)
		}
		if inc.pending.new < inc.n {
			inc.removeBlocker(inc.pending.new, inc.pending.id)
		}
		if inc.pending.old < inc.n {
			inc.blockers[inc.pending.old] = append(inc.blockers[inc.pending.old], inc.pending.id)
		}
		t.End = inc.pending.old
		inc.key.syncDur(inc.pending.id, t.End)
	}
	inc.pending = pendingMove{}
	inc.propEvaluated = false
	inc.propErr = nil
	if tel := inc.opt.Telemetry; tel != nil {
		tel.Rollbacks.Inc()
	}
}

// rotateOrder moves the element at position from to position to, shifting
// the span between them (the inverse of a MoveTensor with swapped
// arguments).
func rotateOrder(order []int, from, to int) {
	id := order[from]
	if to < from {
		copy(order[to+1:from+1], order[to:from])
	} else {
		copy(order[from:to], order[from+1:to+1])
	}
	order[to] = id
}
