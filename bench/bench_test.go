package main

import (
	"context"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"soma/internal/dse"
	"soma/internal/models"
	"soma/internal/obs"
	"soma/internal/report"
)

// toyScale runs every workload at the smallest size that still exercises
// each layer: one model, one seed, a two-point sweep, four warm jobs.
var toyScale = scale{
	search:    dse.Search{Profile: "fast", Beta1: 4},
	setupReps: 1,
	warmup:    "mobilenetv2",

	zooModels: []string{"mobilenetv2"},
	zooSeeds:  1,

	prefill:      models.GPTConfig{Name: "gpt2toy", Layers: 1, DModel: 64, Heads: 2, Vocab: 512, SeqLen: 64},
	prefillSeeds: 1,

	sweepModels:     []string{"mobilenetv2"},
	sweepGBufMB:     []int64{4, 8},
	sweepObjectives: []report.Objective{{N: 1, M: 1}},
	sweepSeeds:      1,

	warmModels: []string{"mobilenetv2"},
	warmSeeds:  2,
}

// TestWorkloadsMatchCatalog runs every workload at toy scale, traced, and
// checks its outputs and both metric sets against BENCHMARK.json: the command
// must print exactly the declared metrics, with the declared units, so the
// catalog and the code cannot drift apart.
func TestWorkloadsMatchCatalog(t *testing.T) {
	cat, err := readCatalog("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cat.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("catalog workloads %v, command has %d", names, len(workloads))
	}
	for i, w := range workloads {
		if names[i] != w.name {
			t.Errorf("catalog workload %d is %q, command's is %q", i, names[i], w.name)
		}
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			o, err := runWorkload(ctx, w, runConfig{seed: 3, traced: true}, toyScale, obs.NewTracer())
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Fatalf("%d of %d units failed their checks", o.failed, o.attempted)
			}
			for _, traced := range []bool{false, true} {
				res, err := score(o, traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				want := cat.EndToEnd
				if traced {
					want = cat.PerLayer
				}
				matchCatalog(t, res.Metrics, want)
			}
		})
	}
}

func matchCatalog(t *testing.T, got map[string]metric, want []catalogMetric) {
	t.Helper()
	declared := map[string]string{}
	for _, m := range want {
		declared[m.Name] = m.Unit
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("declared metric %s is never printed", m.Name)
		case g.Unit != m.Unit:
			t.Errorf("metric %s printed in %s, declared in %s", m.Name, g.Unit, m.Unit)
		}
	}
	var extra []string
	for name := range got {
		if _, ok := declared[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		t.Errorf("printed metric %s is not declared in BENCHMARK.json", name)
	}
}

// TestMetricValuesPrintAsFloats guards the result line: a whole value, such
// as an energy-delay product above 2^53, must still print with a fraction or
// an exponent, and every value must read back exactly.
func TestMetricValuesPrintAsFloats(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{101179289510030770, `{"value":1.0117928951003077e+17,"unit":"pJ.ns"}`},
		{174, `{"value":174.0,"unit":"pJ.ns"}`},
		{2.6868959561521173, `{"value":2.6868959561521173,"unit":"pJ.ns"}`},
		{1e-5, `{"value":1e-05,"unit":"pJ.ns"}`},
	} {
		b, err := json.Marshal(metric{Value: tc.v, Unit: "pJ.ns"})
		if err != nil || string(b) != tc.want {
			t.Errorf("marshal %g = %s, %v; want %s", tc.v, b, err, tc.want)
			continue
		}
		var back metric
		if err := json.Unmarshal(b, &back); err != nil || back.Value != tc.v {
			t.Errorf("%s reads back as %g, %v", b, back.Value, err)
		}
	}
	if _, err := json.Marshal(metric{Value: math.Inf(1), Unit: "s"}); err == nil {
		t.Error("marshal +Inf: want an error")
	}
}

func TestClosedLoopRunsTheMinimumOnce(t *testing.T) {
	var mu sync.Mutex
	ran := map[int]int{}
	closedLoop(0, 2, 6, func(client, i int) {
		mu.Lock()
		defer mu.Unlock()
		ran[i]++
	})
	if len(ran) != 6 {
		t.Errorf("ran operations %v, want exactly 0..5 with a zero-length phase", ran)
	}
	for i, n := range ran {
		if i >= 6 || n != 1 {
			t.Errorf("operation %d ran %d times", i, n)
		}
	}
}

// TestNoExpImport enforces the README rule that the benchmark never imports
// internal/exp, whose forwarding wrappers are slated for deletion.
func TestNoExpImport(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "soma/internal/exp" {
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
}

func TestBagIndexCoversEveryRequestPerPass(t *testing.T) {
	for pass := 0; pass < 3; pass++ {
		hit := make([]bool, 7)
		for i := 0; i < 7; i++ {
			hit[bagIndex(11, 7, pass*7+i)] = true
		}
		for j, ok := range hit {
			if !ok {
				t.Errorf("pass %d never draws request %d", pass, j)
			}
		}
	}
}
