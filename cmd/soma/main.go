// Command soma is the end-to-end scheduler CLI: it takes a workload from the
// model zoo and a hardware configuration, explores the DRAM Communication
// Scheduling Space, and emits the schedule report, the execution graph, and
// (optionally) the lowered instruction stream - the full compiler flow of
// the paper's Fig. 5.
//
// Examples:
//
//	soma -model resnet50 -batch 1 -hw edge
//	soma -model gpt2xl-prefill -batch 4 -hw cloud -profile default
//	soma -model resnet50 -chains 8 -workers 4 -progress
//	soma -model resnet50 -framework cocco -trace
//	soma -model resnet50 -ir out.ir -dram 32 -buf 16
//	soma -scenario multi-tenant-cnn -json
//	soma -scenario my_mix.json -profile fast
//	soma -sweep grid.json -journal grid.jsonl -progress
//	soma -sweep grid.json -journal grid.jsonl -workers host1:8844,host2:8844
//	soma -sweep grid.json -adaptive -budget 12 # probe the grid, solve near the front
//	soma -model resnet50 -telemetry            # search metrics on stderr
//	soma -model resnet50 -convergence-out c.json # annealing trajectory + diagnostics
//	soma -sweep grid.json -trace-out grid.json # Perfetto trace of the sweep
//	soma -list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"soma/internal/cluster"
	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/dse"
	"soma/internal/engine"
	"soma/internal/exp"
	"soma/internal/hw"
	"soma/internal/isa"
	"soma/internal/models"
	"soma/internal/obs"
	"soma/internal/report"
	"soma/internal/sim"
	"soma/internal/soma"
	"soma/internal/trace"
	"soma/internal/workload"
)

func main() {
	model := flag.String("model", "resnet50", "workload: "+strings.Join(models.Names(), "|"))
	batch := flag.Int("batch", 1, "batch size")
	hwName := flag.String("hw", "edge", "platform preset: edge|cloud")
	dram := flag.Float64("dram", 0, "override DRAM bandwidth (GB/s)")
	buf := flag.Int64("buf", 0, "override GBUF size (MB)")
	profile := flag.String("profile", "default", "search profile: fast|default|paper")
	framework := flag.String("framework", "soma", "scheduler backend: "+strings.Join(engine.Backends(), "|"))
	seed := flag.Int64("seed", 1, "search seed")
	chains := flag.Int("chains", 0, "portfolio chains per annealing stage (<=1 = serial)")
	workers := flag.String("workers", "0", "goroutines running portfolio chains (<=1 = serial; result is identical for any value); with -sweep, a comma-separated somad worker address list shards the grid across a cluster instead")
	beta1 := flag.Int("beta1", 0, "override stage-1 iteration multiplier")
	beta2 := flag.Int("beta2", 0, "override stage-2 iteration multiplier")
	objN := flag.Float64("energy-exp", 1, "objective exponent n in Energy^n x Delay^m")
	objM := flag.Float64("delay-exp", 1, "objective exponent m in Energy^n x Delay^m")
	irOut := flag.String("ir", "", "write the lowered instruction stream to this file")
	showTrace := flag.Bool("trace", false, "print the execution graph")
	jsonOut := flag.Bool("json", false, "emit the machine-readable result payload (same schema as the somad API) instead of the human report")
	progress := flag.Bool("progress", false, "stream live search progress (stage transitions, chain improvements, cache hit rates) to stderr")
	scenario := flag.String("scenario", "", "schedule a multi-model scenario: a built-in name (see -list) or a JSON spec file")
	sweep := flag.String("sweep", "", "run a design-space exploration grid from a JSON sweep spec file (docs/dse.md)")
	journal := flag.String("journal", "", "sweep checkpoint file (JSONL); an interrupted sweep resumes from its committed prefix")
	adaptive := flag.Bool("adaptive", false, "run the sweep adaptively: cheap probe solves across the grid, full-fidelity solves only near the Pareto front (docs/dse.md)")
	budget := flag.Int("budget", 0, "with -adaptive, the full-fidelity solve budget (0 = the spec's value or the default fraction of the grid)")
	telemetry := flag.Bool("telemetry", false, "dump search metrics in Prometheus text format to stderr after the run (docs/observability.md)")
	convergenceOut := flag.String("convergence-out", "", "write the run's convergence journal and search diagnostics to this file as JSON (docs/observability.md)")
	traceOut := flag.String("trace-out", "", "write the solve's span trace to this file as Chrome trace-event JSON (load at ui.perfetto.dev)")
	list := flag.Bool("list", false, "list registered models, platforms and built-in scenarios, then exit")
	flag.Parse()

	if *list {
		printCatalog()
		return
	}

	cfg, err := hw.Platform(*hwName)
	if err != nil {
		fatal(err)
	}
	if *dram > 0 {
		cfg = cfg.WithDRAM(*dram)
	}
	if *buf > hw.MaxGBufMB {
		fatal(fmt.Errorf("-buf wants at most %d MB, got %d", hw.MaxGBufMB, *buf))
	}
	if *buf > 0 {
		cfg = cfg.WithGBuf(*buf << 20)
	}
	// -workers is overloaded: a plain integer is the portfolio worker
	// count; anything else is a cluster worker address list (sweeps only,
	// which take their parameters from the spec instead).
	n, clusterWorkers, err := cluster.ParseWorkers(*workers)
	if err != nil {
		fatal(err)
	}
	// The flags resolve by the rule somad jobs and sweep specs use.
	par, err := dse.Search{Profile: *profile, Chains: *chains, Workers: n,
		Beta1: *beta1, Beta2: *beta2}.Params()
	if err != nil {
		fatal(err)
	}
	// -seed is used as given: 0 is seed 0, where a Search block's 0 selects
	// the profile's seed.
	par.Seed = *seed
	obj := soma.Objective{N: *objN, M: *objM}
	var hooks *engine.Hooks
	if *progress {
		hooks = &engine.Hooks{Event: printProgress}
	}
	// The obs bundle observes only (byte-identical results with or without
	// it), so it rides along on every flow: single model, scenario, sweep.
	var o *obs.Obs
	if *telemetry || *traceOut != "" {
		o = obs.New()
	}
	// The convergence journal is pass-through the same way; per-point sweep
	// convergence is a sweep-spec field instead (-sweep rejects this flag).
	var jnl *obs.Journal
	if *convergenceOut != "" {
		jnl = obs.NewJournal()
	}

	if *sweep != "" {
		// A sweep spec declares its own axes and search parameters; the
		// single-run flags would silently conflict with them, so reject
		// any that were set explicitly.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "sweep", "journal", "json", "progress", "telemetry", "trace-out",
				"adaptive", "budget":
			case "workers":
				// Allowed only in its cluster-address-list form: a numeric
				// -workers is a search parameter the spec owns.
				if clusterWorkers == nil {
					fatal(fmt.Errorf("-sweep specs declare their own axes and parameters; numeric -%s is not allowed (a worker address list shards the sweep)", f.Name))
				}
			default:
				fatal(fmt.Errorf("-sweep specs declare their own axes and parameters; -%s is not allowed", f.Name))
			}
		})
		runSweep(*sweep, *journal, *jsonOut, *adaptive, *budget, clusterWorkers, hooks, o)
		flushObs(o, *telemetry, *traceOut)
		return
	}
	if *journal != "" {
		fatal(fmt.Errorf("-journal applies to -sweep runs only"))
	}
	if *adaptive || *budget != 0 {
		fatal(fmt.Errorf("-adaptive and -budget apply to -sweep runs only"))
	}
	if clusterWorkers != nil {
		fatal(fmt.Errorf("a -workers address list applies to -sweep runs only"))
	}

	if *scenario != "" {
		// Mirror the somad API contract: a scenario request carries its
		// own per-component models and batches.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "model" || f.Name == "batch" {
				fatal(fmt.Errorf("-scenario defines its own components; -%s is not allowed", f.Name))
			}
		})
		switch {
		case *framework != "soma":
			fatal(fmt.Errorf("-scenario runs the soma framework only"))
		case *dram > 0 || *buf > 0:
			fatal(fmt.Errorf("-scenario uses the named platform preset; -dram/-buf overrides are not supported"))
		case *showTrace || *irOut != "":
			fatal(fmt.Errorf("-trace and -ir are not supported with -scenario"))
		}
		runScenario(*scenario, *hwName, obj, par, *jsonOut, hooks, o, jnl, *convergenceOut)
		flushObs(o, *telemetry, *traceOut)
		return
	}

	// One engine.Request is the whole search construction: the backend
	// registry, cache scoping, cancellation and payload assembly all live
	// behind engine.Run (the somad daemon runs the identical path, so a
	// fixed seed gives byte-identical -json payloads over both).
	req := engine.Request{
		Backend:   *framework,
		Model:     *model,
		Batch:     *batch,
		Platform:  *hwName,
		Objective: obj,
		Params:    par,
		Obs:       o,
		Journal:   jnl,
	}
	if *dram > 0 || *buf > 0 {
		req.Config = &cfg
	}

	if !*jsonOut {
		g, err := models.Build(*model, *batch)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("workload: %s", g.Summary())
		fmt.Printf("hardware: %s\n", cfg.String())
		// Hand the already-built graph to the engine; Model still labels
		// the payload, so the bytes match the -json path exactly.
		req.Graph = g
	}

	payload, err := engine.Run(context.Background(), req, hooks)
	if err != nil {
		fatal(err)
	}
	writeConvergence(*convergenceOut, payload)
	sched, metrics := payload.Raw.Schedule, payload.Raw.Metrics
	if st := payload.Search; st != nil && !*jsonOut {
		fmt.Printf("buffer allocator: %d iterations, stage-1 budget %s\n",
			st.AllocIters, report.MB(st.Stage1Budget))
		if st.Chains > 1 {
			fmt.Printf("portfolio: %d chains on %d workers, stage-2 winner chain %d\n",
				st.Chains, st.Workers, st.BestChain)
		}
		fmt.Printf("eval cache: %s hit rate, %d entries\n",
			report.HitRate(st.CacheHits, st.CacheMisses), st.CacheEntries)
		fmt.Printf("stage 1: latency %s, energy %.3f mJ\n",
			report.Ms(payload.Raw.Stage1Metrics.LatencyNS), payload.Raw.Stage1Metrics.EnergyPJ/1e9)
	}

	if *jsonOut {
		// The exact payload the somad API serves for this run; -trace is
		// a human-report feature and is skipped, -ir still applies below.
		if err := payload.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	} else {
		printReport(sched, metrics)
	}

	if *showTrace && !*jsonOut {
		cs := coresched.New(cfg)
		m, err := sim.Evaluate(sched, cs, sim.Options{Trace: true})
		if err != nil {
			fatal(err)
		}
		fmt.Print(trace.Render(sched, m, 110))
		fmt.Print(trace.Legend(sched))
	}
	if *irOut != "" {
		prog, err := isa.Generate(sched, cfg.GBufBytes)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*irOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := prog.WriteText(f); err != nil {
			fatal(err)
		}
		if !*jsonOut {
			fmt.Printf("instructions: %d (%d loads, %d stores, %d computes) -> %s\n",
				len(prog.Instrs), prog.Counts()[isa.Load], prog.Counts()[isa.Store],
				prog.Counts()[isa.Compute], *irOut)
		}
	}
	flushObs(o, *telemetry, *traceOut)
}

// writeConvergence dumps the run's Convergence section to path as indented
// JSON and scrubs it from the payload, so `-json` output stays byte-identical
// with or without the flag — the same rule somad applies, serving the report
// on its own endpoint instead of inside the stored result. Serial runs (the
// -chains default) are fully deterministic for a fixed seed, which the CI
// golden relies on. No-op when path is empty.
func writeConvergence(path string, res *report.Result) {
	if path == "" {
		return
	}
	rep := res.Convergence
	if rep == nil {
		fatal(fmt.Errorf("run produced no convergence report"))
	}
	res.Convergence = nil
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
}

// flushObs emits the collected observability artifacts after a run: the
// metrics registry as Prometheus text on stderr (-telemetry) and the span
// trace as Chrome trace-event JSON (-trace-out). No-op when the bundle is
// nil (neither flag set).
func flushObs(o *obs.Obs, telemetry bool, traceOut string) {
	if o == nil {
		return
	}
	if telemetry {
		fmt.Fprintln(os.Stderr, "# search telemetry (Prometheus text format)")
		if err := o.Reg.WritePrometheus(os.Stderr); err != nil {
			fatal(err)
		}
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := o.Tracer.WriteJSON(f); err != nil {
			fatal(err)
		}
	}
}

// resolveScenario turns the -scenario argument into a Scenario: a path to a
// JSON spec file (anything containing a path separator or ending in .json),
// otherwise a built-in library name.
func resolveScenario(arg string) (workload.Scenario, error) {
	if strings.ContainsAny(arg, "/\\") || strings.HasSuffix(arg, ".json") {
		data, err := os.ReadFile(arg)
		if err != nil {
			return workload.Scenario{}, err
		}
		return workload.ParseSpec(data)
	}
	return workload.Builtin(arg)
}

// runScenario is the -scenario flow: compose, schedule, and report. The JSON
// payload is the exact one the somad jobs API serves for the same request
// (both route through engine.Run).
func runScenario(arg, hwName string, obj soma.Objective, par soma.Params, jsonOut bool, hooks *engine.Hooks, o *obs.Obs, jnl *obs.Journal, convergenceOut string) {
	sc, err := resolveScenario(arg)
	if err != nil {
		fatal(err)
	}
	res, err := engine.Run(context.Background(), engine.Request{
		Scenario: &sc, Platform: hwName, Objective: obj, Params: par, Obs: o,
		Journal: jnl}, hooks)
	if err != nil {
		fatal(err)
	}
	writeConvergence(convergenceOut, res)
	if jsonOut {
		if err := res.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	printScenarioReport(res)
}

func printScenarioReport(res *report.Result) {
	info := res.Scenario
	fmt.Printf("scenario: %s (%s, %d components)\n", info.Name, info.Arrival, len(info.Components))
	fmt.Printf("hardware: %s\n\n", res.Hardware.Description)

	t := report.New("components (isolated runs)", "component", "model", "batch", "weight",
		"layers", "latency", "energy", "dram busy")
	for _, c := range info.Components {
		m := c.Isolated.Metrics
		t.Add(c.Name, c.Model, fmt.Sprint(c.Batch), report.F(c.Weight, 1),
			fmt.Sprint(c.Layers), report.Ms(m.LatencyNS),
			fmt.Sprintf("%.3f mJ", m.EnergyPJ/1e9), report.Pct(m.DRAMUtilization))
	}
	fmt.Println(t.String())

	a := report.New("composed schedule", "metric", "value")
	a.Add("latency", report.Ms(res.Metrics.LatencyNS))
	a.Add("  isolated sum", report.Ms(info.IsolatedSumLatencyNS))
	a.Add("  speedup vs isolated", report.X(info.ComposedSpeedup))
	a.Add("energy", fmt.Sprintf("%.3f mJ", res.Metrics.EnergyPJ/1e9))
	a.Add("  isolated sum", fmt.Sprintf("%.3f mJ", info.IsolatedSumEnergyPJ/1e9))
	a.Add("dram busy", report.Pct(res.Metrics.DRAMUtilization))
	a.Add("dram traffic", report.MB(res.Metrics.TotalDRAMBytes))
	a.Add("peak buffer", report.MB(res.Metrics.PeakBufferBytes))
	a.Add("cost", report.E(res.Cost))
	a.Add("  weighted isolated", report.E(info.WeightedIsolatedCost))
	a.Add("LGs / FLGs", fmt.Sprintf("%d / %d", res.Schedule.LGs, res.Schedule.FLGs))
	a.Add("tiles / DRAM tensors", fmt.Sprintf("%d / %d", res.Schedule.Tiles, res.Schedule.Tensors))
	fmt.Println(a.String())
}

// printCatalog is the -list flow, sharing exp.Registry with the somad
// /v1/models, /v1/hw and /v1/scenarios endpoints.
func printCatalog() {
	cat := exp.Registry()
	fmt.Println("models:")
	for _, m := range cat.Models {
		fmt.Printf("  %s\n", m)
	}
	fmt.Println("platforms:")
	for _, p := range cat.Platforms {
		cfg, err := hw.Platform(p)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  %s\n", cfg.String())
	}
	fmt.Println("scenarios:")
	for _, name := range cat.Scenarios {
		sc, err := workload.Builtin(name)
		if err != nil {
			fatal(err)
		}
		parts := make([]string, len(sc.Components))
		for i, c := range sc.Components {
			parts[i] = c.String()
		}
		fmt.Printf("  %s (%s): %s\n", sc.Name, sc.Arrival, strings.Join(parts, " + "))
	}
	fmt.Println("backends:")
	for _, b := range engine.List() {
		fmt.Printf("  %s: %s\n", b.Name, b.Description)
	}
}

func printReport(sched *core.Schedule, metrics *sim.Metrics) {
	t := report.New("schedule report", "metric", "value")
	t.Add("latency", report.Ms(metrics.LatencyNS))
	t.Add("energy", fmt.Sprintf("%.3f mJ", metrics.EnergyPJ/1e9))
	t.Add("  core array", fmt.Sprintf("%.3f mJ", metrics.CoreEnergyPJ/1e9))
	t.Add("  dram", fmt.Sprintf("%.3f mJ", metrics.DRAMEnergyPJ/1e9))
	t.Add("compute utilization", report.Pct(metrics.Utilization))
	t.Add("theoretical max util", report.Pct(metrics.TheoreticalMaxUtil))
	t.Add("dram busy", report.Pct(metrics.DRAMUtilization))
	t.Add("dram traffic", report.MB(metrics.TotalDRAMBytes))
	t.Add("peak buffer", report.MB(metrics.PeakBufferBytes))
	t.Add("avg buffer", fmt.Sprintf("%.2fMB", metrics.AvgBufferBytes/(1<<20)))
	st := sched.Summarize()
	t.Add("LGs / FLGs", fmt.Sprintf("%d / %d", st.LGs, st.FLGs))
	t.Add("tiles / DRAM tensors", fmt.Sprintf("%d / %d", st.Tiles, st.Tensors))
	fmt.Println(t.String())
}

// printProgress is the -progress ticker: one stderr line per engine event,
// prefixed with the backend (and scenario component, when present). It
// observes the stream only, so -json output stays byte-identical with or
// without it.
func printProgress(e engine.Event) {
	who := e.Backend
	switch {
	case who == "": // sweep-level events carry only the component tag
		who = e.Component
	case e.Component != "":
		who += "/" + e.Component
	}
	switch e.Kind {
	case "start":
		fmt.Fprintf(os.Stderr, "[%s] search started\n", who)
	case "stage":
		fmt.Fprintf(os.Stderr, "[%s] %s start (alloc iter %d, budget %s)\n",
			who, e.Stage, e.AllocIter, report.MB(e.Budget))
	case "improve":
		fmt.Fprintf(os.Stderr, "[%s] %s chain %d iter %d best cost %s\n",
			who, e.Stage, e.Chain, e.Iter, report.E(e.Cost))
	case "stage-done":
		fmt.Fprintf(os.Stderr, "[%s] %s done, cost %s\n", who, e.Stage, report.E(e.Cost))
	case "cache":
		if e.Cache != nil {
			fmt.Fprintf(os.Stderr, "[%s] eval cache %s, %d entries\n",
				who, report.HitRate(e.Cache.Hits, e.Cache.Misses), e.Cache.Entries)
		}
	case "done":
		fmt.Fprintf(os.Stderr, "[%s] finished, cost %s\n", who, report.E(e.Cost))
	case "error":
		fmt.Fprintf(os.Stderr, "[%s] failed: %s\n", who, e.Err)
	case "sweep-start":
		fmt.Fprintf(os.Stderr, "[%s] sweep started, %d grid points\n", who, e.Iter)
	case "rung-start":
		fmt.Fprintf(os.Stderr, "[%s] %s rung started, %d points\n", who, e.Stage, e.Iter)
	case "rung-done":
		fmt.Fprintf(os.Stderr, "[%s] %s rung done\n", who, e.Stage)
	case "point-start":
		fmt.Fprintf(os.Stderr, "[%s] point %d%s started\n", who, e.Iter, stageTag(e.Stage))
	case "point-done":
		fmt.Fprintf(os.Stderr, "[%s] point %d%s done, cost %s\n", who, e.Iter, stageTag(e.Stage), report.E(e.Cost))
	case "point-error":
		fmt.Fprintf(os.Stderr, "[%s] point %d failed: %s\n", who, e.Iter, e.Err)
	case "sweep-done":
		fmt.Fprintf(os.Stderr, "[%s] sweep finished, best cost %s\n", who, report.E(e.Cost))
	}
}

// stageTag renders an adaptive rung fidelity as a point-event suffix;
// exhaustive sweeps carry no stage and print unchanged.
func stageTag(s string) string {
	if s == "" {
		return ""
	}
	return " [" + s + "]"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "soma:", err)
	os.Exit(1)
}
