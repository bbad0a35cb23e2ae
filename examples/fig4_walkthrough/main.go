// Fig. 4 walkthrough: reconstructs the paper's worked example - the
// five-layer network A..E with Computing Order [A B C E D], FLC Set {1,2},
// DRAM Cut Set {2} and Tiling Numbers 2,1,2 - and shows how the
// Tensor-centric Notation parses into the tile sequence
// A1 A2 B C1 E1 D1 C2 E2 D2 and exactly thirteen DRAM tensors
// (IA1 IA2 WA WB WE WD OB IC1 IC2 OE1 OE2 OD1 OD2), then evaluates the
// schedule and renders the DRAM-COMPUTE-BUFFER diagram.
//
// Run: go run ./examples/fig4_walkthrough
package main

import (
	"fmt"
	"log"

	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/graph"
	"soma/internal/hw"
	"soma/internal/sim"
	"soma/internal/trace"
)

func main() {
	// Topology of Fig. 4: A -> B -> C(pool); C -> E; C -> D.
	g := graph.New("fig4", 1)
	in := g.Add(graph.Layer{Name: "in", Kind: graph.Input,
		Out: graph.Shape{N: 1, C: 16, H: 64, W: 64}})
	a := g.Add(graph.Layer{Name: "A", Kind: graph.Conv,
		Deps:        []graph.Dep{{Producer: in}},
		Out:         graph.Shape{N: 1, C: 32, H: 64, W: 64},
		K:           graph.Kernel{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1},
		WeightBytes: 16 * 32 * 9, Ops: 2 * 16 * 32 * 9 * 64 * 64})
	b := g.Add(graph.Layer{Name: "B", Kind: graph.Conv,
		Deps:        []graph.Dep{{Producer: a}},
		Out:         graph.Shape{N: 1, C: 32, H: 64, W: 64},
		K:           graph.Kernel{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1},
		WeightBytes: 32 * 32 * 9, Ops: 2 * 32 * 32 * 9 * 64 * 64})
	c := g.Add(graph.Layer{Name: "C", Kind: graph.Pool,
		Deps: []graph.Dep{{Producer: b}},
		Out:  graph.Shape{N: 1, C: 32, H: 32, W: 32},
		K:    graph.Kernel{KH: 2, KW: 2, SH: 2, SW: 2}, Ops: 32 * 32 * 32 * 4})
	e := g.Add(graph.Layer{Name: "E", Kind: graph.Conv,
		Deps:        []graph.Dep{{Producer: c}},
		Out:         graph.Shape{N: 1, C: 32, H: 32, W: 32},
		K:           graph.Kernel{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1},
		WeightBytes: 32 * 32 * 9, Ops: 2 * 32 * 32 * 9 * 32 * 32})
	d := g.Add(graph.Layer{Name: "D", Kind: graph.Conv,
		Deps:        []graph.Dep{{Producer: c}},
		Out:         graph.Shape{N: 1, C: 32, H: 32, W: 32},
		K:           graph.Kernel{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1},
		WeightBytes: 32 * 32 * 9, Ops: 2 * 32 * 32 * 9 * 32 * 32})

	// The paper's encoding: [A | B || C,E,D] with tiling 2,1,2.
	enc := &core.Encoding{
		Order:  []graph.LayerID{a, b, c, e, d},
		FLCs:   []int{1, 2},
		IsDRAM: []bool{false, true},
		Tile:   []int{2, 1, 2},
	}
	fmt.Printf("encoding: %s\n\n", enc)

	s, err := core.Parse(g, enc)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("COMPUTE row (the paper's A1 A2 B C1 E1 D1 C2 E2 D2):")
	for _, tl := range s.Tiles {
		fmt.Printf("  %d: %s%d  FLG%d LG%d  region %v\n",
			tl.Seq, g.Layer(tl.Layer).Name, tl.Index+1, tl.FLG, tl.LG, s.Region(tl.Seq))
	}

	fmt.Printf("\nDRAM tensors (%d, the paper's example has 13) in DRAM Tensor Order:\n", len(s.Tensors))
	for _, id := range s.Order {
		ts := &s.Tensors[id]
		switch {
		case ts.Kind == core.StoreOfmap:
			fmt.Printf("  O%s%d  bytes=%-6d living=(%d,%d)\n",
				g.Layer(ts.Layer).Name, tileIdx(s, ts.Producer)+1, ts.Bytes, ts.Producer, ts.End)
		case ts.Kind == core.LoadWeight:
			fmt.Printf("  W%s   bytes=%-6d living=(%d,%d)\n",
				g.Layer(ts.Layer).Name, ts.Bytes, ts.Start, ts.Release)
		default:
			fmt.Printf("  I%s%d  bytes=%-6d living=(%d,%d)\n",
				g.Layer(ts.Layer).Name, tileIdx(s, ts.FirstUse)+1, ts.Bytes, ts.Start, ts.Release)
		}
	}

	cs := coresched.New(hw.Edge())
	m, err := sim.Evaluate(s, cs, sim.Options{Trace: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(trace.Render(s, m, 100))
	_ = in
}

// tileIdx maps a tile seq back to its within-FLG index.
func tileIdx(s *core.Schedule, seq int) int { return s.Tiles[seq].Index }
