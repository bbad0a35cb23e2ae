package main

import (
	"context"
	"fmt"
	"os"

	"soma/internal/cluster"
	"soma/internal/dse"
	"soma/internal/engine"
	"soma/internal/obs"
	"soma/internal/report"
)

// runSweep is the -sweep flow: parse the declarative grid spec, execute it
// through the dse runner (checkpointing to -journal when given, resuming
// automatically from a committed prefix), and report the rows plus the
// sweep-level aggregates. With a worker address list the grid shards across
// the cluster instead (docs/cluster.md). The JSONL journal is the canonical
// byte-comparable artifact - identical for any worker count, serial or
// sharded, and across interruptions.
func runSweep(path, journal string, jsonOut, adaptive bool, budget int, clusterWorkers []string, hooks *engine.Hooks, o *obs.Obs) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	sw, err := dse.ParseSweep(data)
	if err != nil {
		fatal(err)
	}
	// -adaptive switches a plain spec to the successive-halving driver with
	// default knobs; a spec that already declares an adaptive block keeps it.
	// -budget overrides the full-fidelity solve budget either way.
	if adaptive && sw.Adaptive == nil {
		sw.Adaptive = &dse.Adaptive{}
	}
	if budget != 0 {
		if sw.Adaptive == nil {
			fatal(fmt.Errorf("-budget needs -adaptive (or an adaptive block in the spec)"))
		}
		sw.Adaptive.Budget = budget
	}
	opt := dse.Options{Journal: journal, Hooks: hooks, Obs: o}
	if len(clusterWorkers) > 0 {
		// Workers refuse leases of a grid past the served bound, so such a
		// sweep would only ever run locally, one rejected lease at a time.
		if err := sw.CheckServed(); err != nil {
			fatal(fmt.Errorf("-workers: %w", err))
		}
		useCluster(&opt, clusterWorkers)
	}
	out, err := dse.Run(context.Background(), sw, opt)
	if err != nil {
		fatal(err)
	}
	if jsonOut {
		// The exact outcome the somad sweeps API serves for this spec
		// (rows scrubbed of run-dependent cache counters and in-memory
		// artifacts).
		out.Scrub()
		if err := out.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	printSweepReport(out)
}

// useCluster points opt at the given somad workers: a cluster executor
// leases the points, and each worker evaluates on its own cache.
// Unreachable workers degrade to plain local execution inside the executor.
func useCluster(opt *dse.Options, workers []string) {
	opt.Executor = cluster.New(cluster.Options{Workers: workers, Logf: func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}})
}

func printSweepReport(out *dse.Outcome) {
	name := out.Name
	if name == "" {
		name = "unnamed"
	}
	fmt.Printf("sweep: %s (%d points, %d resumed from journal, %d failed)\n\n",
		name, out.Points, out.Resumed, out.Failed)

	t := report.New("grid", "point", "cost", "latency", "energy", "dram busy", "peak buf")
	for _, row := range out.Rows {
		label := row.Point.Label()
		if row.Fidelity != "" {
			label += " [" + row.Fidelity + "]"
		}
		if row.Err != "" {
			t.Add(label, "ERROR: "+row.Err)
			continue
		}
		m := row.Result.Metrics
		t.Add(label, report.E(row.Result.Cost), report.Ms(m.LatencyNS),
			fmt.Sprintf("%.3f mJ", m.EnergyPJ/1e9), report.Pct(m.DRAMUtilization),
			report.MB(m.PeakBufferBytes))
	}
	fmt.Println(t.String())

	if a := out.Adaptive; a != nil {
		fmt.Printf("adaptive: %d probes, %d promoted to full fidelity (%d by exploration), %d full solves saved\n",
			a.Probes, a.Promotions, a.Explored, a.SolvesSaved)
	}

	if best := out.Best(); best != nil {
		fmt.Printf("best: %s at cost %s\n", best.Point.Label(), report.E(best.Result.Cost))
	}
	if len(out.Pareto) > 0 {
		p := report.New("cost vs buffer-size pareto front", "buffer", "point", "cost")
		for _, i := range out.Pareto {
			row := out.Rows[i]
			p.Add(report.MB(row.Result.Hardware.GBufBytes), row.Point.Label(),
				report.E(row.Result.Cost))
		}
		fmt.Println(p.String())
	}
	fmt.Printf("eval cache: %s hit rate, %d entries\n",
		report.HitRate(out.Cache.Hits, out.Cache.Misses), out.Cache.Entries)
}
