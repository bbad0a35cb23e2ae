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
// range: loads must start no later than their first use and not before tile
// zero; stores must end after their producing tile and no later than the end
// of execution.
func (s *Schedule) LivingValid() bool {
	n := s.NumTiles()
	for i := range s.Tensors {
		t := &s.Tensors[i]
		if t.Kind.IsLoad() {
			if t.Start < 0 || t.Start > t.FirstUse {
				return false
			}
		} else {
			if t.End <= t.Producer || t.End > n {
				return false
			}
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
	id := s.Order[from]
	t := &s.Tensors[id]
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
	copy(s.Order[from:], s.Order[from+1:])
	copy(s.Order[to+1:], s.Order[to:n-1])
	s.Order[to] = id
	return true
}

// SetStart adjusts a load's Living Duration start (prefetch earlier or
// later), clamped to [0, FirstUse]. Returns false for stores.
func (s *Schedule) SetStart(id, start int) bool {
	if id < 0 || id >= len(s.Tensors) {
		return false
	}
	t := &s.Tensors[id]
	if !t.Kind.IsLoad() {
		return false
	}
	if start < 0 {
		start = 0
	}
	if start > t.FirstUse {
		start = t.FirstUse
	}
	t.Start = start
	return true
}

// SetEnd adjusts a store's Living Duration end (delay the writeback),
// clamped to [Producer+1, NumTiles]. Returns false for loads.
func (s *Schedule) SetEnd(id, end int) bool {
	if id < 0 || id >= len(s.Tensors) {
		return false
	}
	t := &s.Tensors[id]
	if t.Kind.IsLoad() {
		return false
	}
	if end <= t.Producer {
		end = t.Producer + 1
	}
	if n := s.NumTiles(); end > n {
		end = n
	}
	t.End = end
	return true
}
