// Package isa lowers a scheduled workload to the paper's abstract
// instruction system (Sec. II): load (DRAM -> GBUF), store (GBUF -> DRAM)
// and compute instructions, with start-of/end-of dependency markers between
// them. It also performs GBUF address allocation - a first-fit linear-scan
// allocator over the Living Durations - and DRAM address assignment, which
// is the part of the SoMa compiler flow (IR Generator + Instruction
// Generator) that sits below the scheduler.
package isa

import (
	"fmt"
	"io"
	"sort"

	"soma/internal/core"
	"soma/internal/graph"
)

// Op is the abstract opcode.
type Op int

const (
	// Load moves a tensor from DRAM into the GBUF.
	Load Op = iota
	// Store moves a tensor from the GBUF back to DRAM.
	Store
	// Compute runs one tile on the core group.
	Compute
)

func (o Op) String() string {
	switch o {
	case Load:
		return "LOAD"
	case Store:
		return "STORE"
	case Compute:
		return "COMPUTE"
	default:
		return "???"
	}
}

// Instr is one abstract instruction. DependsOn lists instruction IDs whose
// completion gates this instruction's start (the "markers" of Fig. 4).
type Instr struct {
	ID int
	Op Op
	// Label is a human-readable operand description (e.g. "W conv1",
	// "I pool2#3", "conv1#0").
	Label string
	// Bytes moved (Load/Store only).
	Bytes int64
	// GBufAddr / DRAMAddr are the resolved addresses (Load/Store only).
	GBufAddr int64
	DRAMAddr int64
	// TileSeq / TensorID link back to the schedule.
	TileSeq   int
	TensorID  int
	DependsOn []int
}

// Program is a lowered instruction stream plus its address maps.
type Program struct {
	Instrs []Instr
	// GBufHighWater is the highest allocated GBUF address + 1.
	GBufHighWater int64
	// DRAMSize is the total DRAM image size.
	DRAMSize int64
	// Objects names the DRAM-resident objects (weights, boundary fmaps).
	Objects []DRAMObject
}

// DRAMObject is one named region of the DRAM image.
type DRAMObject struct {
	Name  string
	Addr  int64
	Bytes int64
}

// Generate lowers a schedule onto a GBUF of the given capacity. It fails if
// first-fit allocation cannot place every living tensor (fragmentation can
// require slightly more than the peak occupancy).
func Generate(s *core.Schedule, gbufBytes int64) (*Program, error) {
	p := &Program{}

	// --- DRAM image -----------------------------------------------------
	// One object per weighted layer plus one per DRAM-crossing fmap.
	dramBase := map[string]int64{}
	var dramTop int64
	object := func(name string, bytes int64) int64 {
		if addr, ok := dramBase[name]; ok {
			return addr
		}
		addr := dramTop
		dramBase[name] = addr
		dramTop += bytes
		p.Objects = append(p.Objects, DRAMObject{Name: name, Addr: addr, Bytes: bytes})
		return addr
	}

	// --- GBUF allocation over living intervals ---------------------------
	spans := make([]span, 0, len(s.OnChip)+len(s.Tensors))
	for _, iv := range s.OnChip {
		spans = append(spans, span{iv.Lo, iv.Hi, iv.Bytes, -1})
	}
	for i := range s.Tensors {
		t := &s.Tensors[i]
		lo, hi := t.Live()
		spans = append(spans, span{lo, hi, t.Bytes, t.ID})
	}
	// First-fit linear-scan allocation. Fragmentation depends on the
	// placement order of same-start spans, so several tie-break
	// strategies are attempted before giving up.
	strategies := []func(a, b span) bool{
		// Longest lifetime first: long-lived tensors sink to low
		// addresses and short-lived traffic churns above them.
		func(a, b span) bool {
			if a.lo != b.lo {
				return a.lo < b.lo
			}
			return a.hi > b.hi
		},
		// Largest first.
		func(a, b span) bool {
			if a.lo != b.lo {
				return a.lo < b.lo
			}
			return a.bytes > b.bytes
		},
		// Plain arrival order.
		func(a, b span) bool { return a.lo < b.lo },
	}
	var gbufAddr map[int]int64
	var high int64
	var err error
	for _, less := range strategies {
		ordered := append([]span(nil), spans...)
		sort.SliceStable(ordered, func(a, b int) bool { return less(ordered[a], ordered[b]) })
		gbufAddr, high, err = allocateSpans(ordered, gbufBytes)
		if err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	p.GBufHighWater = high

	// --- Instruction emission --------------------------------------------
	// DMA instructions follow the DRAM Tensor Order; compute instructions
	// follow the tile sequence. Dependencies mirror the evaluator's start
	// conditions exactly.
	tensorInstr := make(map[int]int, len(s.Tensors))
	tileInstr := make(map[int]int, s.NumTiles())
	add := func(in Instr) int {
		in.ID = len(p.Instrs)
		p.Instrs = append(p.Instrs, in)
		return in.ID
	}

	// Gating tensors per tile (loads at first use, stores at End).
	gate := make([][]int, s.NumTiles())
	for i := range s.Tensors {
		if g := s.Tensors[i].Gate(s.NumTiles()); g >= 0 {
			gate[g] = append(gate[g], i)
		}
	}

	// Emit in simulation order so every dependency already has an ID:
	// walk tiles and tensors with the same two-pointer rule as the
	// evaluator.
	i, j := 0, 0
	for i < s.NumTiles() || j < len(s.Tensors) {
		progressed := false
		for j < len(s.Tensors) {
			t := &s.Tensors[s.Order[j]]
			wait := t.Wait()
			if i <= wait {
				break
			}
			deps := make([]int, 0, 3)
			if j > 0 {
				deps = append(deps, tensorInstr[s.Order[j-1]])
			}
			if wait >= 0 {
				deps = append(deps, tileInstr[wait])
			}
			op := Load
			name := t.Kind.String() + " " + s.G.Layer(t.Layer).Name
			switch t.Kind {
			case core.LoadWeight:
				object("weights:"+s.G.Layer(t.Layer).Name, t.Bytes)
			case core.LoadIfmap:
				src := "input"
				if t.Source != graph.None {
					src = s.G.Layer(t.Source).Name
				}
				object("fmap:"+src, s.G.Layer(srcOrSelf(s, t)).Out.Bytes(s.G.ElemBytes))
				name = fmt.Sprintf("I %s<-%s", s.G.Layer(t.Layer).Name, src)
				w := s.WaitsOn(t)
				for st := w.Lo; st < w.Hi; st++ {
					deps = append(deps, tensorInstr[st])
				}
			case core.StoreOfmap:
				op = Store
				object("fmap:"+s.G.Layer(t.Layer).Name, s.G.Layer(t.Layer).Out.Bytes(s.G.ElemBytes))
			}
			dram := dramObjectAddr(p, t, s)
			id := add(Instr{Op: op, Label: name, Bytes: t.Bytes,
				GBufAddr: gbufAddr[t.ID], DRAMAddr: dram,
				TileSeq: -1, TensorID: t.ID, DependsOn: dedup(deps)})
			tensorInstr[t.ID] = id
			j++
			progressed = true
		}
		if i < s.NumTiles() {
			allDone := true
			deps := make([]int, 0, 4)
			if i > 0 {
				deps = append(deps, tileInstr[i-1])
			}
			for _, tid := range gate[i] {
				iid, ok := tensorInstr[tid]
				if !ok {
					allDone = false
					break
				}
				deps = append(deps, iid)
			}
			if allDone {
				tl := &s.Tiles[i]
				id := add(Instr{Op: Compute,
					Label:   fmt.Sprintf("%s#%d", s.G.Layer(tl.Layer).Name, tl.Index),
					TileSeq: i, TensorID: -1, DependsOn: dedup(deps)})
				tileInstr[i] = id
				i++
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("isa: schedule deadlocks during emission (tile %d, tensor %d)", i, j)
		}
	}
	p.DRAMSize = dramTop
	return p, nil
}

// span is one GBUF-resident interval to allocate: alive over tile seqs
// [lo, hi), bytes wide, linked to a DRAM tensor (or -1 for on-chip fmaps).
type span struct {
	lo, hi int
	bytes  int64
	tensor int
}

// allocateSpans runs address-ordered first fit over lifetime-sorted spans.
func allocateSpans(spans []span, gbufBytes int64) (map[int]int64, int64, error) {
	type block struct {
		off, size int64
		hi        int
	}
	var live []block
	addr := make(map[int]int64)
	var high int64
	for _, sp := range spans {
		if sp.bytes == 0 {
			continue
		}
		// Expire blocks whose lifetime ended.
		nl := live[:0]
		for _, b := range live {
			if b.hi > sp.lo {
				nl = append(nl, b)
			}
		}
		live = nl
		sort.Slice(live, func(a, b int) bool { return live[a].off < live[b].off })
		// First fit.
		var off int64
		for _, b := range live {
			if off+sp.bytes <= b.off {
				break
			}
			if b.off+b.size > off {
				off = b.off + b.size
			}
		}
		if off+sp.bytes > gbufBytes {
			return nil, 0, fmt.Errorf("isa: GBUF allocation overflow at tile %d: need %d at %d (cap %d)",
				sp.lo, sp.bytes, off, gbufBytes)
		}
		live = append(live, block{off, sp.bytes, sp.hi})
		if off+sp.bytes > high {
			high = off + sp.bytes
		}
		if sp.tensor >= 0 {
			addr[sp.tensor] = off
		}
	}
	return addr, high, nil
}

// srcOrSelf returns the DRAM-object layer an ifmap load reads.
func srcOrSelf(s *core.Schedule, t *core.Tensor) graph.LayerID {
	if t.Source != graph.None {
		return t.Source
	}
	return t.Layer
}

// dramObjectAddr resolves a tensor's DRAM base address.
func dramObjectAddr(p *Program, t *core.Tensor, s *core.Schedule) int64 {
	var name string
	switch t.Kind {
	case core.LoadWeight:
		name = "weights:" + s.G.Layer(t.Layer).Name
	case core.LoadIfmap:
		src := "input"
		if t.Source != graph.None {
			src = s.G.Layer(t.Source).Name
		}
		name = "fmap:" + src
	case core.StoreOfmap:
		name = "fmap:" + s.G.Layer(t.Layer).Name
	}
	for _, o := range p.Objects {
		if o.Name == name {
			return o.Addr
		}
	}
	return 0
}

func dedup(in []int) []int {
	sort.Ints(in)
	out := in[:0]
	for k, v := range in {
		if k == 0 || v != in[k-1] {
			out = append(out, v)
		}
	}
	return out
}

// Validate checks program well-formedness: IDs dense, dependencies backward,
// addresses in range.
func (p *Program) Validate(gbufBytes int64) error {
	for i, in := range p.Instrs {
		if in.ID != i {
			return fmt.Errorf("isa: instruction %d has ID %d", i, in.ID)
		}
		for _, d := range in.DependsOn {
			if d >= i || d < 0 {
				return fmt.Errorf("isa: instruction %d depends on %d (not earlier)", i, d)
			}
		}
		if in.Op != Compute {
			if in.Bytes <= 0 {
				return fmt.Errorf("isa: DMA instruction %d moves %d bytes", i, in.Bytes)
			}
			if in.GBufAddr < 0 || in.GBufAddr+in.Bytes > gbufBytes {
				return fmt.Errorf("isa: instruction %d GBUF range [%d,%d) out of %d",
					i, in.GBufAddr, in.GBufAddr+in.Bytes, gbufBytes)
			}
		}
	}
	return nil
}

// WriteText renders the program as the SoMa compiler's textual IR.
func (p *Program) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# soma-ir v1: %d instructions, gbuf high water %d, dram image %d\n",
		len(p.Instrs), p.GBufHighWater, p.DRAMSize); err != nil {
		return err
	}
	for _, o := range p.Objects {
		if _, err := fmt.Fprintf(w, ".object %-32s addr=0x%08x size=%d\n", o.Name, o.Addr, o.Bytes); err != nil {
			return err
		}
	}
	for _, in := range p.Instrs {
		var err error
		switch in.Op {
		case Compute:
			_, err = fmt.Fprintf(w, "%5d %-7s %-28s deps=%v\n", in.ID, in.Op, in.Label, in.DependsOn)
		default:
			_, err = fmt.Fprintf(w, "%5d %-7s %-28s bytes=%-10d gbuf=0x%06x dram=0x%08x deps=%v\n",
				in.ID, in.Op, in.Label, in.Bytes, in.GBufAddr, in.DRAMAddr, in.DependsOn)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Counts returns the per-opcode instruction counts (reporting aid).
func (p *Program) Counts() map[Op]int {
	m := map[Op]int{}
	for _, in := range p.Instrs {
		m[in.Op]++
	}
	return m
}
