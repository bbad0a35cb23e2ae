// Package graph defines the DNN workload intermediate representation used by
// the whole framework: layers with 4-D output shapes, a dependency DAG with
// local (spatially aligned, possibly haloed) and global edges, and the op and
// byte accounting every downstream component (tiling, notation parser,
// evaluator) relies on.
//
// The representation deliberately stays close to what the paper's model
// parser consumes: each layer knows its output feature-map shape, its kernel
// geometry (for halo propagation), its weight footprint and its arithmetic
// cost. Transformer workloads reuse the same 4-D shape with H = token index.
package graph

import (
	"errors"
	"fmt"
	"strings"
)

// LayerID identifies a layer inside one Graph. IDs are dense indices assigned
// in insertion order, which makes them usable as slice indices everywhere.
type LayerID int

// None is the invalid layer id.
const None LayerID = -1

// Kind enumerates the operator classes the accelerator template supports.
// Conv and GEMM-like kinds run on the PE array; the rest run on the vector
// unit (Sec. II of the paper).
type Kind int

const (
	// Conv is a 2-D convolution (optionally strided/padded).
	Conv Kind = iota
	// DWConv is a depthwise convolution.
	DWConv
	// GEMM is a dense matrix multiply against static weights (FC layers,
	// transformer projections).
	GEMM
	// MatMul is an activation×activation matrix multiply (attention score
	// and attention×V). Its second operand is a global dependency.
	MatMul
	// Pool is max/average pooling.
	Pool
	// GlobalPool reduces the whole spatial extent (keeps N and C).
	GlobalPool
	// Eltwise is an element-wise binary op (residual add, mul).
	Eltwise
	// Activation is a unary map (ReLU, GeLU) - usually folded, kept for
	// completeness of irregular graphs.
	Activation
	// Softmax normalizes along the feature (C) axis, row-local.
	Softmax
	// LayerNorm normalizes along the feature axis, row-local.
	LayerNorm
	// Concat concatenates along C (inception branches).
	Concat
	// Input is the graph input pseudo-layer (no compute, no weights).
	Input
)

// String returns the lower-case kind name.
func (k Kind) String() string {
	switch k {
	case Conv:
		return "conv"
	case DWConv:
		return "dwconv"
	case GEMM:
		return "gemm"
	case MatMul:
		return "matmul"
	case Pool:
		return "pool"
	case GlobalPool:
		return "gpool"
	case Eltwise:
		return "eltwise"
	case Activation:
		return "act"
	case Softmax:
		return "softmax"
	case LayerNorm:
		return "layernorm"
	case Concat:
		return "concat"
	case Input:
		return "input"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// OnPEArray reports whether the kind executes on the PE array (GEMM/conv
// engines); everything else uses the vector unit.
func (k Kind) OnPEArray() bool {
	switch k {
	case Conv, DWConv, GEMM, MatMul:
		return true
	}
	return false
}

// Shape is a 4-D feature-map shape. CNNs use the natural NCHW meaning;
// transformer layers use H for the token axis and W=1.
type Shape struct {
	N, C, H, W int
}

// Elems returns the number of elements in the shape.
func (s Shape) Elems() int64 {
	return int64(s.N) * int64(s.C) * int64(s.H) * int64(s.W)
}

// Bytes returns the byte footprint assuming the given element width.
func (s Shape) Bytes(elemBytes int) int64 { return s.Elems() * int64(elemBytes) }

// Valid reports whether all dimensions are positive.
func (s Shape) Valid() bool { return s.N > 0 && s.C > 0 && s.H > 0 && s.W > 0 }

func (s Shape) String() string {
	return fmt.Sprintf("%dx%dx%dx%d", s.N, s.C, s.H, s.W)
}

// Kernel describes the spatial window of conv/pool layers; it drives halo
// propagation during fused tiling. A pointwise op uses the zero value with
// KH=KW=SH=SW=1.
type Kernel struct {
	KH, KW int // window size
	SH, SW int // stride
	PH, PW int // padding (symmetric)
}

// Pointwise is the 1x1/stride-1 kernel used by layers with no spatial window.
func Pointwise() Kernel { return Kernel{KH: 1, KW: 1, SH: 1, SW: 1} }

// InSpan maps an output index interval [o0,o1) to the input interval it
// reads, along one axis with window kw, stride s, padding p, clamped to
// [0,limit).
func InSpan(o0, o1, kw, s, p, limit int) (i0, i1 int) {
	i0 = o0*s - p
	i1 = (o1-1)*s - p + kw
	if i0 < 0 {
		i0 = 0
	}
	if i1 > limit {
		i1 = limit
	}
	if i1 < i0 {
		i1 = i0
	}
	return i0, i1
}

// Dep is one incoming dependency edge of a layer.
type Dep struct {
	// Producer is the layer whose output feeds this edge.
	Producer LayerID
	// Global marks edges whose consumer needs the producer's entire
	// spatial extent for its own batch rows (attention K/V operands,
	// global pooling). Batch samples stay independent, so batch tiling
	// still splits global edges; spatial tiling does not. Local edges
	// are tile-aligned with halo.
	Global bool
}

// Layer is one node of the workload DAG.
type Layer struct {
	ID   LayerID
	Name string
	Kind Kind

	// Deps are the incoming data edges, in operand order.
	Deps []Dep

	// Out is the output feature-map shape.
	Out Shape

	// K is the spatial window (meaningful for Conv/DWConv/Pool).
	K Kernel

	// WeightBytes is the static parameter footprint streamed from DRAM
	// once per execution (conv filters, GEMM weights, and - for decode
	// attention - the KV cache, which behaves exactly like weights).
	WeightBytes int64

	// WeightsPerSample marks weight-like state that belongs to individual
	// batch samples (the decode-phase KV cache): the bytes scale with the
	// batch slice a tile covers and are streamed per tile instead of
	// staying resident for the whole fusion group.
	WeightsPerSample bool

	// After lists ordering-only barrier predecessors: every tile of each
	// listed layer must be scheduled before any tile of this layer, but no
	// data flows over the edge - no DRAM tensor, no buffer interval, no
	// store obligation for the predecessor. Scenario composition uses
	// barriers to express sequential multi-model arrival (model B starts
	// after model A completes) without distorting either model's traffic.
	After []LayerID

	// Ops is the total arithmetic work of the whole layer for the whole
	// batch, counting one multiply-accumulate as 2 ops and one vector op
	// as 1 op.
	Ops int64
}

// DependsOn reports whether l must follow id in a Computing Order: id
// produces one of l's inputs or is one of its barriers.
func (l *Layer) DependsOn(id LayerID) bool {
	for _, d := range l.Deps {
		if d.Producer == id {
			return true
		}
	}
	for _, a := range l.After {
		if a == id {
			return true
		}
	}
	return false
}

// OutBytes is the full output footprint with the graph's element width.
func (g *Graph) OutBytes(id LayerID) int64 {
	return g.Layers[id].Out.Bytes(g.ElemBytes)
}

// Graph is a DNN workload: a DAG of layers plus global metadata.
type Graph struct {
	Name string
	// ElemBytes is the activation/weight element width (1 for INT8).
	ElemBytes int
	Layers    []Layer
	// consumers[id] lists the layers that consume id's output.
	consumers [][]LayerID
}

// New creates an empty graph with the given name and element width.
func New(name string, elemBytes int) *Graph {
	if elemBytes <= 0 {
		elemBytes = 1
	}
	return &Graph{Name: name, ElemBytes: elemBytes}
}

// Add appends a layer, assigning its ID. Dependencies must already exist.
// It panics on malformed layers: model-zoo construction is programmer
// controlled, so a panic here is a build bug, not a runtime condition.
func (g *Graph) Add(l Layer) LayerID {
	id := LayerID(len(g.Layers))
	l.ID = id
	if l.Name == "" {
		l.Name = fmt.Sprintf("%s%d", l.Kind, id)
	}
	if !l.Out.Valid() {
		panic(fmt.Sprintf("graph %s: layer %s has invalid shape %v", g.Name, l.Name, l.Out))
	}
	if l.K.KH == 0 { // default pointwise kernel
		l.K = Pointwise()
	}
	for _, d := range l.Deps {
		if d.Producer < 0 || int(d.Producer) >= len(g.Layers) {
			panic(fmt.Sprintf("graph %s: layer %s depends on unknown layer %d", g.Name, l.Name, d.Producer))
		}
	}
	for _, a := range l.After {
		if a < 0 || int(a) >= len(g.Layers) {
			panic(fmt.Sprintf("graph %s: layer %s has barrier on unknown layer %d", g.Name, l.Name, a))
		}
	}
	g.Layers = append(g.Layers, l)
	g.consumers = append(g.consumers, nil)
	for _, d := range l.Deps {
		g.consumers[d.Producer] = append(g.consumers[d.Producer], id)
	}
	return id
}

// Len returns the number of layers (including Input pseudo-layers).
func (g *Graph) Len() int { return len(g.Layers) }

// Layer returns the layer with the given id.
func (g *Graph) Layer(id LayerID) *Layer { return &g.Layers[id] }

// Consumers returns the layers that read id's output.
func (g *Graph) Consumers(id LayerID) []LayerID { return g.consumers[id] }

// IsOutput reports whether a layer's result leaves the network (no
// consumers). Such ofmaps must always be written back to DRAM.
func (g *Graph) IsOutput(id LayerID) bool { return len(g.consumers[id]) == 0 }

// ComputeLayers returns the IDs of all non-Input layers in insertion order,
// which is a valid topological order by construction.
func (g *Graph) ComputeLayers() []LayerID {
	var out []LayerID
	for i := range g.Layers {
		if g.Layers[i].Kind != Input {
			out = append(out, LayerID(i))
		}
	}
	return out
}

// TotalOps sums arithmetic work over all layers.
func (g *Graph) TotalOps() int64 {
	var t int64
	for i := range g.Layers {
		t += g.Layers[i].Ops
	}
	return t
}

// TotalWeightBytes sums parameter bytes over all layers.
func (g *Graph) TotalWeightBytes() int64 {
	var t int64
	for i := range g.Layers {
		t += g.Layers[i].WeightBytes
	}
	return t
}

// Validate checks the structural invariants of the DAG: acyclicity (implied
// by construction order), shape agreement on local edges, and that Input
// layers have no dependencies.
func (g *Graph) Validate() error {
	if len(g.Layers) == 0 {
		return errors.New("graph: empty")
	}
	for i := range g.Layers {
		l := &g.Layers[i]
		if l.Kind == Input && len(l.Deps) != 0 {
			return fmt.Errorf("graph %s: input layer %s has dependencies", g.Name, l.Name)
		}
		if l.Kind != Input && len(l.Deps) == 0 {
			return fmt.Errorf("graph %s: layer %s has no inputs", g.Name, l.Name)
		}
		for _, d := range l.Deps {
			if d.Producer >= l.ID {
				return fmt.Errorf("graph %s: layer %s depends on later layer %d", g.Name, l.Name, d.Producer)
			}
			p := &g.Layers[d.Producer]
			if !d.Global && l.Kind != Concat && p.Out.N != l.Out.N {
				return fmt.Errorf("graph %s: local edge %s->%s changes batch %d->%d",
					g.Name, p.Name, l.Name, p.Out.N, l.Out.N)
			}
		}
		for _, a := range l.After {
			if a >= l.ID {
				return fmt.Errorf("graph %s: layer %s has barrier on later layer %d", g.Name, l.Name, a)
			}
			if g.Layers[a].Kind == Input {
				return fmt.Errorf("graph %s: layer %s has barrier on input layer %s", g.Name, l.Name, g.Layers[a].Name)
			}
		}
		if l.Ops < 0 || l.WeightBytes < 0 {
			return fmt.Errorf("graph %s: layer %s has negative accounting", g.Name, l.Name)
		}
	}
	return nil
}

// IsValidOrder reports whether ord is a permutation of the compute layers in
// which every dependency points leftward (the paper's legality rule for the
// Computing Order attribute).
func (g *Graph) IsValidOrder(ord []LayerID) bool {
	return g.IsValidOrderIn(ord, make([]int, len(g.Layers)))
}

// IsValidOrderIn is IsValidOrder with its position table in pos, which
// must hold len(g.Layers) ints (any contents), so a caller checking many
// orders reuses one table.
func (g *Graph) IsValidOrderIn(ord []LayerID, pos []int) bool {
	// pos[id] is 1 + id's position in ord, 0 for layers outside it. Every
	// encoding check runs this, so it counts the compute layers in place
	// instead of materializing them.
	pos = pos[:len(g.Layers)]
	clear(pos)
	for i, id := range ord {
		if int(id) < 0 || int(id) >= len(g.Layers) || g.Layers[id].Kind == Input {
			return false
		}
		if pos[id] != 0 {
			return false
		}
		pos[id] = i + 1
	}
	compute := 0
	for i := range g.Layers {
		if g.Layers[i].Kind != Input {
			compute++
		}
	}
	if len(ord) != compute {
		return false
	}
	for _, id := range ord {
		for _, d := range g.Layers[id].Deps {
			if g.Layers[d.Producer].Kind == Input {
				continue
			}
			if pos[d.Producer] >= pos[id] {
				return false
			}
		}
		// Barriers constrain the Computing Order exactly like data
		// dependencies even though they carry no bytes. A barrier on a
		// layer outside ord (an Input, which Validate rejects) counts
		// as position 0.
		for _, a := range g.Layers[id].After {
			if max(pos[a], 1) >= pos[id] {
				return false
			}
		}
	}
	return true
}

// Summary renders a short human-readable description of the graph.
func (g *Graph) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d layers, %.2f GOPs, %.2f MB weights\n",
		g.Name, len(g.ComputeLayers()),
		float64(g.TotalOps())/1e9, float64(g.TotalWeightBytes())/(1<<20))
	return b.String()
}

// Stats aggregates per-kind counts, useful for tests and reports.
func (g *Graph) Stats() map[string]int {
	m := map[string]int{}
	for i := range g.Layers {
		m[g.Layers[i].Kind.String()]++
	}
	return m
}
