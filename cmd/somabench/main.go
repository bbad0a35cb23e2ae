// Command somabench regenerates every figure of the paper's evaluation:
//
//	somabench fig2   - double-buffer utilization imbalance (Sec. III-B)
//	somabench fig3   - ops-vs-DRAM scatter, per layer and per Cocco tile
//	somabench fig6   - overall Cocco vs SoMa comparison (+ Sec. VI-B stats)
//	somabench fig7   - DSE heatmap over DRAM bandwidth x buffer size
//	somabench fig8   - execution-graph comparison (Cocco / stage 1 / stage 2)
//	somabench stats  - fusion-structure statistics (tiles, LGs, FLGs)
//	somabench llm    - GPT-2 decode utilization vs batch size
//	somabench ablate - ablations of SoMa's design choices
//	somabench snapshot - per-move evaluation cost snapshot (BENCH_6.json)
//	somabench all    - everything above
//
// Results print as tables and, with -out DIR, also as CSV files.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"soma/internal/dse"
	"soma/internal/exp"
	"soma/internal/report"
	"soma/internal/soma"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	profile := fs.String("profile", "default", "search profile: fast|default|paper")
	workers := fs.Int("workers", 0, "parallel workers across cases (0 = all CPUs)")
	chains := fs.Int("chains", 0, "portfolio chains per annealing stage (<=1 = serial)")
	chainWorkers := fs.Int("chainworkers", 0, "goroutines per portfolio (<=1 = serial; best kept at 1 when -workers already saturates the CPUs)")
	outDir := fs.String("out", "", "directory for CSV outputs (optional)")
	workload := fs.String("workload", "resnet50", "workload for fig7/fig8")
	platform := fs.String("platform", "edge", "platform for fig8: edge|cloud")
	batch := fs.Int("batch", 1, "batch size for fig7/fig8")
	batches := fs.String("batches", "", "comma list of batch sizes for fig6 (default 1,4,16,64)")
	seed := fs.Int64("seed", 1, "search seed")
	snapOut := fs.String("snapshot-out", "", "snapshot: write the measurement as JSON to FILE (e.g. BENCH_6.json)")
	snapCheck := fs.String("check", "", "snapshot: compare against committed snapshot FILE, exit non-zero on regression")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	search := dse.Search{Profile: *profile, Chains: *chains, Workers: *chainWorkers}
	par, err := search.Params()
	if err != nil {
		fatal(err)
	}
	// -seed is used as given: 0 is seed 0, where a Search block's 0 selects
	// the profile's seed.
	par.Seed = *seed
	bs, err := parseBatches(*batches)
	if err != nil {
		fmt.Fprintln(os.Stderr, "somabench:", err)
		os.Exit(2)
	}
	h := &harness{search: search, par: par, workers: *workers, outDir: *outDir}

	switch cmd {
	case "fig2":
		err = h.fig2()
	case "fig3":
		err = h.fig3()
	case "fig6":
		err = h.fig6(bs)
	case "fig7":
		err = h.fig7(*workload, *batch)
	case "fig8":
		err = h.fig8(exp.Case{Platform: *platform, Workload: *workload, Batch: *batch})
	case "stats":
		err = h.stats(bs)
	case "llm":
		err = h.llm()
	case "ablate":
		err = h.ablate()
	case "edp":
		err = h.edp(exp.Case{Platform: *platform, Workload: *workload, Batch: *batch})
	case "seeds":
		err = h.seeds(exp.Case{Platform: *platform, Workload: *workload, Batch: *batch})
	case "snapshot":
		err = h.snapshot(*snapOut, *snapCheck)
	case "all":
		err = h.all()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: somabench {fig2|fig3|fig6|fig7|fig8|stats|llm|ablate|edp|seeds|snapshot|all} [flags]")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "somabench:", err)
	os.Exit(1)
}

// parseBatches parses the -batches list: positive integers separated by
// commas, or "" for the paper's sweep (exp.Batches).
func parseBatches(s string) ([]int, error) {
	if s == "" {
		return exp.Batches, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		b, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || b <= 0 {
			return nil, fmt.Errorf("-batches: %q is not a positive integer", f)
		}
		out = append(out, b)
	}
	return out, nil
}

// harness runs the subcommands. Figures that sweep a grid pass search (and
// par.Seed) to the dse runner; the others solve with par, resolved from the
// same block.
type harness struct {
	search  dse.Search
	par     soma.Params
	workers int
	outDir  string
}

// emit prints a table and optionally writes it as CSV.
func (h *harness) emit(t *report.Table, csvName string) error {
	fmt.Println(t.String())
	if h.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(h.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(h.outDir, csvName))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}

func (h *harness) all() error {
	steps := []func() error{
		h.fig2, h.fig3,
		func() error { return h.fig6(exp.Batches) },
		func() error { return h.fig7("resnet50", 1) },
		func() error {
			return h.fig8(exp.Case{Platform: "edge", Workload: "resnet50", Batch: 1})
		},
		func() error { return h.stats(exp.Batches) },
		h.llm, h.ablate,
	}
	for _, s := range steps {
		if err := s(); err != nil {
			return err
		}
	}
	return nil
}
