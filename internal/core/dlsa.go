package core

// OrderValid reports whether the merge of the DRAM channel and the compute
// pipeline runs this schedule to completion: the DRAM Tensor Order is a
// permutation, every load follows all stores of its Source layer, and no
// transfer is ordered at or before a transfer that gates a tile it waits
// for. It checks the last rule its own way, a prefix maximum of the waits
// along the order compared with each gate, so it can check MoveTensor's
// span scan and the simulator's merge.
func (s *Schedule) OrderValid() bool {
	if len(s.Order) != len(s.Tensors) {
		return false
	}
	n := s.NumTiles()
	pos := make([]int, len(s.Tensors))
	for i := range pos {
		pos[i] = -1
	}
	// A load must follow its Source layer's last store.
	lastStore := make([]int, len(s.Stores))
	for i := range lastStore {
		lastStore[i] = -1
	}
	maxWait := -1
	for i, id := range s.Order {
		if id < 0 || id >= len(s.Tensors) || pos[id] != -1 {
			return false
		}
		pos[id] = i
		t := &s.Tensors[id]
		if t.Kind == StoreOfmap {
			lastStore[t.Layer] = i
		}
		// t commits after itself and every transfer before it have waited
		// for their tiles, so the tile it gates must come after all those.
		maxWait = max(maxWait, t.Wait())
		if g := t.Gate(n); g >= 0 && g <= maxWait {
			return false
		}
	}
	for i := range s.Tensors {
		if t := &s.Tensors[i]; t.Kind == LoadIfmap && lastStore[t.Source] > pos[i] {
			return false
		}
	}
	return true
}

// LivingValid reports whether every Living Duration is inside its legal
// range (see SetLiving).
func (s *Schedule) LivingValid() bool {
	n := s.NumTiles()
	for i := range s.Tensors {
		t := &s.Tensors[i]
		if lo, hi := t.livingRange(n); t.Living() < lo || t.Living() > hi {
			return false
		}
	}
	return true
}

// MoveTensor relocates the tensor at order position from to position to.
// The move is refused (returning false, order unchanged) when it would
// deadlock a schedule whose order OrderValid accepts: when it would put a
// load before a store it depends on, a store after a load of its output,
// or a transfer at or before one that gates a tile the first waits for.
func (s *Schedule) MoveTensor(from, to int) bool {
	n := len(s.Order)
	if from < 0 || from >= n || to < 0 || to >= n || from == to {
		return false
	}
	t := &s.Tensors[s.Order[from]]
	nt := s.NumTiles()
	// The merge stalls on a load ordered before a store of its Source
	// layer, or on a transfer U ordered at or before a transfer V with
	// 0 <= V.Gate <= U.Wait: V waits for U, the tile V gates waits for V,
	// and U waits for that tile or a later one. A move reorders only the
	// moved tensor against the span it passes, so a stall-free order
	// stalls after it iff one of those pairs does. Moving earlier, the
	// tensor may not pass a store it waits on (the loads' stores are one
	// ID window) or a tensor gating a tile at or before its wait; moving
	// later, a store may not pass a load of its layer's output, nor any
	// tensor pass one waiting for a tile at or after its gate. Each pass
	// reads the span once and stops at the first conflict. This runs on
	// every order proposal of the stage-2 hot loop and must not allocate.
	if to < from {
		w, wait := s.WaitsOn(t), t.Wait()
		for _, c := range s.Order[to:from] {
			if g := s.Tensors[c].Gate(nt); g >= 0 && g <= wait || w.Has(c) {
				return false
			}
		}
	} else {
		gate, store := t.Gate(nt), t.Kind == StoreOfmap
		for _, c := range s.Order[from+1 : to+1] {
			if u := &s.Tensors[c]; gate >= 0 && u.Wait() >= gate || store && u.Source == t.Layer {
				return false
			}
		}
	}
	Rotate(s.Order, from, to)
	return true
}

// SetLiving sets tensor id's Living Duration - a load's Start (prefetch
// earlier or later) or a store's End (delay the writeback) - to v clamped
// to its legal range: [0, FirstUse] for a load, [Producer+1, NumTiles] for
// a store. It reports whether the value changed.
func (s *Schedule) SetLiving(id, v int) bool {
	if uint(id) >= uint(len(s.Tensors)) {
		return false
	}
	t := &s.Tensors[id]
	lo, hi := t.livingRange(s.NumTiles())
	if v = min(max(v, lo), hi); v == t.Living() {
		return false
	}
	if t.Kind.IsLoad() {
		t.Start = v
	} else {
		t.End = v
	}
	return true
}

// Rotate moves the element of x at position from to position to, shifting
// the elements between them one place toward from.
func Rotate[T any](x []T, from, to int) {
	e := x[from]
	if to < from {
		copy(x[to+1:from+1], x[to:from])
	} else {
		copy(x[from:to], x[from+1:to+1])
	}
	x[to] = e
}
