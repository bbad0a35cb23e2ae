package core

// OrderValid reports whether the DRAM Tensor Order is a permutation that
// places every producer store before the loads that re-read its data
// (violations deadlock the serial DRAM channel).
func (s *Schedule) OrderValid() bool {
	if len(s.Order) != len(s.Tensors) {
		return false
	}
	pos := make([]int, len(s.Tensors))
	for i := range pos {
		pos[i] = -1
	}
	// A load must follow its Source layer's last store.
	lastStore := make([]int, len(s.Stores))
	for i := range lastStore {
		lastStore[i] = -1
	}
	for i, id := range s.Order {
		if id < 0 || id >= len(s.Tensors) || pos[id] != -1 {
			return false
		}
		pos[id] = i
		if t := &s.Tensors[id]; t.Kind == StoreOfmap {
			lastStore[t.Layer] = i
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
// The move is rejected (returning false, order unchanged) when it would put
// a load before a store it depends on.
func (s *Schedule) MoveTensor(from, to int) bool {
	n := len(s.Order)
	if from < 0 || from >= n || to < 0 || to >= n || from == to {
		return false
	}
	t := &s.Tensors[s.Order[from]]
	// A load may not pass a store of its Source layer, and a store may not
	// pass a load of its layer's output. The loads waiting on a store are
	// those whose Source is its layer, and a load's stores are one ID
	// window, so either check is one comparison per tensor of the moved
	// range. This runs on every order proposal of the stage-2 hot loop and
	// must not allocate.
	switch {
	case to < from:
		if w := s.WaitsOn(t); w.Lo < w.Hi {
			for _, c := range s.Order[to:from] {
				if w.Has(c) {
					return false
				}
			}
		}
	case t.Kind == StoreOfmap:
		for _, c := range s.Order[from+1 : to+1] {
			if s.Tensors[c].Source == t.Layer {
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
