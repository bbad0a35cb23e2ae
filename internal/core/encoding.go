// Package core implements the paper's primary contribution: the
// Tensor-centric Notation (Sec. IV) and its parsing method. An Encoding
// captures the Layer-Fusion-related Attributes - Computing Order,
// Fine-grained Layer-fusion Cut (FLC) set, per-FLG Tiling Number and DRAM
// Cut set - and parsing lowers it to a Schedule: the global computing-tile
// sequence, the set of DRAM tensors with their adjustable Living Durations
// (the DRAM-Load-and-Store-related Attributes), and every on-chip buffer
// interval. Together these span the DRAM Communication Scheduling Space the
// SoMa framework explores.
package core

import (
	"fmt"
	"sort"

	"soma/internal/graph"
)

// Encoding is one point of the DRAM Communication Scheduling Space, holding
// the four LFA attributes. The DLSA attributes live on the parsed Schedule
// (see dlsa.go) because their domain - the DRAM tensor set - only exists
// after LFA parsing.
type Encoding struct {
	// Order is the Computing Order: a dependency-respecting permutation
	// of the graph's compute layers.
	Order []graph.LayerID
	// FLCs are the Fine-grained Layer-fusion Cut positions, strictly
	// increasing, each in (0, len(Order)). A cut at position p separates
	// Order[p-1] from Order[p]. Positions 0 and len(Order) are implicit
	// boundaries.
	FLCs []int
	// IsDRAM marks which FLCs are also DRAM Cuts (the DRAM Cut Set is a
	// subset of the FLC Set). Parallel to FLCs.
	IsDRAM []bool
	// Tile is the Tiling Number of each FLG; len(Tile) == len(FLCs)+1.
	Tile []int
}

// DefaultEncoding returns the LFA exploration stage's initial solution: each
// layer forms its own FLG and LG (every boundary is a DRAM cut) and every
// tiling number is the requested minimum granularity.
func DefaultEncoding(g *graph.Graph, minTile int) *Encoding {
	if minTile < 1 {
		minTile = 1
	}
	order := g.ComputeLayers()
	n := len(order)
	e := &Encoding{Order: order}
	for p := 1; p < n; p++ {
		e.FLCs = append(e.FLCs, p)
		e.IsDRAM = append(e.IsDRAM, true)
	}
	e.Tile = make([]int, n)
	for i := range e.Tile {
		e.Tile[i] = minTile
	}
	return e
}

// Clone returns a deep copy of the encoding. Annealing chains do not clone
// per proposal: they build each candidate in a reused encoding (CopyFrom).
func (e *Encoding) Clone() *Encoding {
	c := &Encoding{}
	c.CopyFrom(e)
	return c
}

// CopyFrom makes e a deep copy of src, reusing the capacity of e's slices,
// so a scratch encoding that takes one candidate after another stops
// allocating once it has held the largest.
func (e *Encoding) CopyFrom(src *Encoding) {
	e.Order = append(e.Order[:0], src.Order...)
	e.FLCs = append(e.FLCs[:0], src.FLCs...)
	e.IsDRAM = append(e.IsDRAM[:0], src.IsDRAM...)
	e.Tile = append(e.Tile[:0], src.Tile...)
}

// NumFLGs returns the number of fine-grained layer-fusion groups.
func (e *Encoding) NumFLGs() int { return len(e.FLCs) + 1 }

// NumLGs returns the number of layer-fusion groups (DRAM-cut segments).
func (e *Encoding) NumLGs() int {
	n := 1
	for _, d := range e.IsDRAM {
		if d {
			n++
		}
	}
	return n
}

// FLGBounds returns the half-open position range [lo,hi) of FLG i.
func (e *Encoding) FLGBounds(i int) (lo, hi int) {
	lo = 0
	if i > 0 {
		lo = e.FLCs[i-1]
	}
	hi = len(e.Order)
	if i < len(e.FLCs) {
		hi = e.FLCs[i]
	}
	return lo, hi
}

// FLGLayers returns the layer slice of FLG i (a view into Order).
func (e *Encoding) FLGLayers(i int) []graph.LayerID {
	lo, hi := e.FLGBounds(i)
	return e.Order[lo:hi]
}

// FLGOfPos returns the FLG index containing order position p.
func (e *Encoding) FLGOfPos(p int) int {
	return sort.SearchInts(e.FLCs, p+1)
}

// Check verifies the structural legality of the encoding against a graph:
// the order is a valid Computing Order, cuts are sorted, in range and
// consistent, and tiling numbers are positive. Fusion-semantic legality
// (global deps inside multi-tile FLGs, buffer capacity) is established by
// Parse and the evaluator.
func (e *Encoding) Check(g *graph.Graph) error {
	return e.check(g, make([]int, len(g.Layers)))
}

// check is Check with the order check's position table in pos, which must
// hold len(g.Layers) ints (see graph.IsValidOrderIn).
func (e *Encoding) check(g *graph.Graph, pos []int) error {
	if !g.IsValidOrderIn(e.Order, pos) {
		return fmt.Errorf("core: invalid computing order")
	}
	if len(e.IsDRAM) != len(e.FLCs) {
		return fmt.Errorf("core: IsDRAM length %d != FLCs length %d", len(e.IsDRAM), len(e.FLCs))
	}
	if len(e.Tile) != len(e.FLCs)+1 {
		return fmt.Errorf("core: Tile length %d != #FLGs %d", len(e.Tile), len(e.FLCs)+1)
	}
	prev := 0
	for _, c := range e.FLCs {
		if c <= prev || c >= len(e.Order) {
			return fmt.Errorf("core: cut position %d out of order (prev %d, n %d)", c, prev, len(e.Order))
		}
		prev = c
	}
	for i, t := range e.Tile {
		if t < 1 {
			return fmt.Errorf("core: FLG %d has tiling number %d", i, t)
		}
	}
	return nil
}

// AddFLC inserts a fine-grained cut at position p (not a DRAM cut); the two
// halves inherit the original FLG's tiling number, per the paper's operator
// definition. No-op if a cut already exists at p or p is out of range.
func (e *Encoding) AddFLC(p int) bool {
	if p <= 0 || p >= len(e.Order) {
		return false
	}
	i := sort.SearchInts(e.FLCs, p)
	if i < len(e.FLCs) && e.FLCs[i] == p {
		return false
	}
	flg := e.FLGOfPos(p) // FLG being split; p is strictly inside it
	e.FLCs = append(e.FLCs, 0)
	copy(e.FLCs[i+1:], e.FLCs[i:])
	e.FLCs[i] = p
	e.IsDRAM = append(e.IsDRAM, false)
	copy(e.IsDRAM[i+1:], e.IsDRAM[i:])
	e.IsDRAM[i] = false
	t := e.Tile[flg]
	e.Tile = append(e.Tile, 0)
	copy(e.Tile[flg+1:], e.Tile[flg:])
	e.Tile[flg] = t
	return true
}

// RemoveFLC deletes the i-th cut, merging the adjacent FLGs; mergedTile
// selects the surviving tiling number (the caller inherits probabilistically
// by layer-count ratio, per the paper). Removing a DRAM cut also merges LGs.
func (e *Encoding) RemoveFLC(i int, mergedTile int) bool {
	if i < 0 || i >= len(e.FLCs) {
		return false
	}
	e.FLCs = append(e.FLCs[:i], e.FLCs[i+1:]...)
	e.IsDRAM = append(e.IsDRAM[:i], e.IsDRAM[i+1:]...)
	if mergedTile < 1 {
		mergedTile = 1
	}
	e.Tile[i] = mergedTile
	e.Tile = append(e.Tile[:i+1], e.Tile[i+2:]...)
	return true
}

// MoveLayer relocates the layer at position from to position to, keeping
// segment tilings attached to positions. Returns false (unchanged) if the
// resulting order would violate dependencies.
//
// It rotates Order in place. Only the moved layer changes places relative
// to the others, so on a valid order the move is legal iff no layer it
// jumps over must stay on its side: moving earlier, none of them may be one
// of its producers or barriers; moving later, none of them may consume it
// or wait on it. On a valid order of a validated graph it accepts exactly
// the moves after which g.IsValidOrder holds.
func (e *Encoding) MoveLayer(g *graph.Graph, from, to int) bool {
	n := len(e.Order)
	if from < 0 || from >= n || to < 0 || to >= n || from == to {
		return false
	}
	id := e.Order[from]
	if to < from {
		l := g.Layer(id)
		for _, x := range e.Order[to:from] {
			if l.DependsOn(x) {
				return false
			}
		}
	} else {
		for _, x := range e.Order[from+1 : to+1] {
			if g.Layer(x).DependsOn(id) {
				return false
			}
		}
	}
	Rotate(e.Order, from, to)
	return true
}

// String renders the encoding in the paper's bracket notation, e.g.
// [A | B | C E D]{dram:2} with tiling numbers.
func (e *Encoding) String() string {
	s := "["
	for i := 0; i < e.NumFLGs(); i++ {
		if i > 0 {
			idx := i - 1
			if e.IsDRAM[idx] {
				s += " || "
			} else {
				s += " | "
			}
		}
		lo, hi := e.FLGBounds(i)
		for p := lo; p < hi; p++ {
			if p > lo {
				s += ","
			}
			s += fmt.Sprint(int(e.Order[p]))
		}
		s += fmt.Sprintf(":%d", e.Tile[i])
	}
	return s + "]"
}
