package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// catalog is BENCHMARK.json: the workloads and every metric with its unit,
// direction and, for end-to-end metrics, the bound by which it may worsen
// before a change counts as a regression.
type catalog struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []catalogMetric `json:"end_to_end"`
	PerLayer []catalogMetric `json:"per_layer"`
}

type catalogMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readCatalog(path string) (*catalog, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c catalog
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// compareMain is `bench compare [-spec BENCHMARK.json] BASE CHANGE`: BASE and
// CHANGE hold the runLines of two sets of untraced runs, and every
// (workload, end-to-end metric) pair is classified by its catalog bound.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	spec := fs.String("spec", "BENCHMARK.json", "benchmark catalog with the metric bounds")
	_ = fs.Parse(args) // ExitOnError
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-spec BENCHMARK.json] BASE.jsonl CHANGE.jsonl")
		return 2
	}
	cat, err := readCatalog(*spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	var sets [2][]runLine
	for i := range sets {
		if sets[i], err = readRuns(fs.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
	}
	if err := writeComparison(os.Stdout, cat, sets[0], sets[1]); err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	return 0
}

// samples collects one metric of one workload from untraced runs, by seed.
func samples(runs []runLine, workload, metric string) map[int64]float64 {
	out := map[int64]float64{}
	for _, r := range runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		if m, ok := r.Result.Metrics[metric]; ok {
			out[r.Seed] = m.Value
		}
	}
	return out
}

func writeComparison(w io.Writer, cat *catalog, base, change []runLine) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median\tchange median\tchange\tbase spread\tchange spread\tbound\tverdict")
	for _, wl := range cat.Workloads {
		for _, m := range cat.EndToEnd {
			a, b := samples(base, wl.Name, m.Name), samples(change, wl.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\t%.2f\tmissing\n", wl.Name, m.Name, m.Bound)
				continue
			}
			v := classify(a, b, m.Better, m.Bound)
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%s\t%s\t%.2f\t%s\n", wl.Name, m.Name,
				v.baseMedian, v.changeMedian, 100*v.delta, pct(v.baseSpread), pct(v.changeSpread), m.Bound, v.verdict)
		}
	}
	return tw.Flush()
}

func pct(x float64) string {
	if x < 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*x)
}

// verdict is one classified (workload, metric) comparison. Spreads are -1
// when a side has fewer than two runs.
type verdict struct {
	baseMedian, changeMedian float64
	// delta is the change's relative difference from the base median.
	delta                    float64
	baseSpread, changeSpread float64
	verdict                  string
}

// classify compares two sets of runs keyed by seed. A side whose
// interquartile spread exceeds the bound leaves the metric unresolved,
// unless every change run beats every base run. Otherwise a median worse by
// more than the bound is a regression, and a median better by more than the
// base spread is an improvement only if the change also wins at least nine
// tenths of the runs paired by seed (ties count for neither).
func classify(base, change map[int64]float64, better string, bound float64) verdict {
	var a, b []float64
	for _, x := range base {
		a = append(a, x)
	}
	for _, x := range change {
		b = append(b, x)
	}
	v := verdict{baseMedian: median(a), changeMedian: median(b), baseSpread: -1, changeSpread: -1}
	v.delta = (v.changeMedian - v.baseMedian) / v.baseMedian
	sign := 1.0 // positive means the change is worse
	if better == "higher" {
		sign = -1
	}
	worse := sign * v.delta
	beats := func(x, y float64) bool { return sign*(x-y) < 0 }

	sa, errA := spread(a)
	sb, errB := spread(b)
	if errA == nil {
		v.baseSpread = sa
	}
	if errB == nil {
		v.changeSpread = sb
	}
	if errA != nil || errB != nil || sa > bound || sb > bound {
		all := true
		for _, x := range b {
			for _, y := range a {
				all = all && beats(x, y)
			}
		}
		if all {
			v.verdict = "improved"
		} else {
			v.verdict = "unresolved"
		}
		return v
	}
	switch {
	case worse > bound:
		v.verdict = "regressed"
	case -worse > sa && pairedWins(base, change, beats) >= 0.9:
		v.verdict = "improved"
	default:
		v.verdict = "unchanged"
	}
	return v
}

// pairedWins is the share of seeds run on both sides where the change beat
// the base.
func pairedWins(base, change map[int64]float64, beats func(x, y float64) bool) float64 {
	var pairs, wins int
	for seed, y := range base {
		x, ok := change[seed]
		if !ok {
			continue
		}
		pairs++
		if beats(x, y) {
			wins++
		}
	}
	return ratio(float64(wins), float64(pairs))
}
