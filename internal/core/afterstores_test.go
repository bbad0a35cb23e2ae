package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"soma/internal/graph"
	"soma/internal/models"
)

// checkAfterStores checks the invariant the simulator's reload gate relies
// on: each layer's store window Stores[l] holds exactly its store IDs, and
// every load of a stored layer's output waits on exactly that layer's
// stores (WaitsOn is its Source layer's window), while weight loads and
// loads of graph inputs wait on none. The expected lists are rebuilt by
// scanning the tensors, the way Parse once attached them to each load.
func checkAfterStores(s *Schedule) error {
	stores := make([][]int, len(s.G.Layers))
	for i := range s.Tensors {
		if t := &s.Tensors[i]; t.Kind == StoreOfmap {
			stores[t.Layer] = append(stores[t.Layer], t.ID)
		}
	}
	if len(s.Stores) != len(s.G.Layers) {
		return fmt.Errorf("%d store windows for %d layers", len(s.Stores), len(s.G.Layers))
	}
	for l, w := range s.Stores {
		if got := windowIDs(w); !slices.Equal(got, stores[l]) {
			return fmt.Errorf("layer %d: store window %v, want stores %v", l, got, stores[l])
		}
	}
	for i := range s.Tensors {
		t := &s.Tensors[i]
		var want []int
		if t.Kind == LoadIfmap && s.G.Layer(t.Source).Kind != graph.Input {
			want = stores[t.Source]
		}
		if got := windowIDs(s.WaitsOn(t)); !slices.Equal(got, want) {
			return fmt.Errorf("tensor %d (%v of layer %d, source %d) waits on stores %v, want %v",
				t.ID, t.Kind, t.Layer, t.Source, got, want)
		}
	}
	return nil
}

// windowIDs lists the IDs of w in order, nil when it is empty: the list a
// load carried before store windows replaced the lists.
func windowIDs(w IDRange) []int {
	var ids []int
	for id := w.Lo; id < w.Hi; id++ {
		ids = append(ids, id)
	}
	return ids
}

// TestAfterStoresIsSourceStoreWindow pins that invariant on the zoo, on
// GPT-2 Small prefill cut to two blocks at several tiling numbers, and on
// every schedule of a random LFA walk from each.
func TestAfterStoresIsSourceStoreWindow(t *testing.T) {
	type start struct {
		name  string
		g     *graph.Graph
		tiles int
	}
	var starts []start
	for _, name := range []string{"mobilenetv2", "resnet50", "randwire", "ires", "gpt2s-decode"} {
		g, err := models.Build(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		starts = append(starts, start{name, g, 2})
	}
	cut := models.GPT2Small()
	cut.Layers = 2
	for _, tiles := range []int{1, 4, 16} {
		starts = append(starts, start{fmt.Sprintf("gpt2s-prefill-2blk/%d", tiles),
			models.GPT2Prefill(cut, 1), tiles})
	}
	for si, st := range starts {
		t.Run(st.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(si + 1)))
			cur := DefaultEncoding(st.g, st.tiles)
			steps, checked := 150, 0
			for step := 0; step <= steps; step++ {
				cand := cur
				if step > 0 {
					var ok bool
					if cand, _, ok = goldenMutate(st.g, cur, rng); !ok {
						continue
					}
				}
				s, err := Parse(st.g, cand)
				if err != nil {
					continue
				}
				if err := checkAfterStores(s); err != nil {
					t.Fatalf("step %d, %s: %v", step, cand, err)
				}
				cur = cand
				checked++
			}
			if checked < steps/4 {
				t.Fatalf("only %d of %d steps parsed", checked, steps)
			}
		})
	}
}
