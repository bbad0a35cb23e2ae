package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/exp"
	"soma/internal/graph"
	"soma/internal/hw"
	"soma/internal/models"
	"soma/internal/obs"
	"soma/internal/report"
	"soma/internal/sim"
	"soma/internal/soma"
)

// BenchSchema identifies the snapshot file format. BENCH_6.json (committed at
// the repo root) is the first point of the performance trajectory: it records
// the stage-2 DLSA per-move cost of the incremental evaluator against the
// historical clone-and-replay path for every zoo model. CI regenerates the
// measurement and fails on regression (see checkSnapshot for the exact
// rules).
const BenchSchema = "soma-bench/v1"

// BenchEntry is one zoo model's measurement.
type BenchEntry struct {
	Model    string `json:"model"`
	Platform string `json:"platform"`
	Batch    int    `json:"batch"`
	Tiles    int    `json:"tiles"`
	Tensors  int    `json:"tensors"`

	// IncNsPerMove / IncAllocsPerMove cost one stage-2 DLSA proposal on
	// sim.Incremental (move + suffix re-simulation + accept/reject).
	IncNsPerMove     float64 `json:"inc_ns_per_move"`
	IncAllocsPerMove float64 `json:"inc_allocs_per_move"`
	// FullNsPerMove / FullAllocsPerMove cost the same proposal on the
	// historical path: clone the schedule, mutate the clone, evaluate it
	// from scratch with sim.Evaluate.
	FullNsPerMove     float64 `json:"full_ns_per_move"`
	FullAllocsPerMove float64 `json:"full_allocs_per_move"`
	// Speedup is FullNsPerMove / IncNsPerMove.
	Speedup float64 `json:"speedup"`
	// ResumedFrac is the fraction of evaluated proposals that resumed from
	// a mid-schedule checkpoint; EventsFrac the fraction of merge events
	// actually re-simulated (both from sim.IncStats). EventsPerStep is the
	// merge events re-simulated per walk step, refused and unproductive
	// draws included: unlike EventsFrac it does not rise when cheap
	// proposals stop reaching the evaluator.
	ResumedFrac   float64 `json:"resumed_frac"`
	EventsFrac    float64 `json:"events_frac"`
	EventsPerStep float64 `json:"events_per_step"`

	// Stage1Misses is the number of cache misses of one serial fixed-seed
	// stage-1 run from the no-fusion start; Stage1FoldedFrac the fraction
	// of their tiles the arena folded (sim_arena_tiles_folded_total over
	// sim_arena_tiles_total), and Stage1AllocsPerMiss the run's heap
	// allocations per miss. Stage1LookupsPerMiss is the FLG plans their
	// lowerings took from the FLG memo per miss
	// (sim_arena_memo_lookups_total), and Stage1LoweredFrac the fraction of
	// the misses' layers whose bookkeeping they recomputed
	// (sim_arena_layers_bookkept_total over misses times the model's
	// layers).
	Stage1Misses         int64   `json:"stage1_misses"`
	Stage1FoldedFrac     float64 `json:"stage1_folded_frac"`
	Stage1AllocsPerMiss  float64 `json:"stage1_allocs_per_miss"`
	Stage1LookupsPerMiss float64 `json:"stage1_lookups_per_miss"`
	Stage1LoweredFrac    float64 `json:"stage1_lowered_frac"`
}

// BenchSnapshot is the BENCH_6.json payload.
type BenchSnapshot struct {
	Schema  string       `json:"schema"`
	Profile string       `json:"profile"`
	Seed    int64        `json:"seed"`
	Models  []BenchEntry `json:"models"`
}

// snapshotCases pairs every zoo model with its paper platform (GPT-2 XL and
// the large transformer run on the cloud configuration, everything else on
// edge), all at batch 1.
func snapshotCases() []exp.Case {
	// vgg16's weight-dominated layers need the cloud buffer to admit a
	// feasible fast-profile schedule; the GPT-2 XL and large-transformer
	// pairing follows the paper.
	cloud := map[string]bool{"gpt2xl-prefill": true, "gpt2xl-decode": true,
		"transformer-large": true, "vgg16": true}
	names := []string{"resnet50", "resnet101", "ires", "randwire", "vgg16",
		"mobilenetv2", "transformer-large", "gpt2s-prefill", "gpt2s-decode",
		"gpt2xl-prefill", "gpt2xl-decode"}
	out := make([]exp.Case, 0, len(names))
	for _, n := range names {
		pf := "edge"
		if cloud[n] {
			pf = "cloud"
		}
		out = append(out, exp.Case{Platform: pf, Workload: n, Batch: 1})
	}
	return out
}

// snapshot measures the per-move evaluation cost of every zoo model and
// optionally writes the result (-snapshot-out) or compares it against a
// committed snapshot (-check), exiting non-zero on regression.
func (h *harness) snapshot(outFile, checkFile string) error {
	snap := BenchSnapshot{Schema: BenchSchema, Profile: h.search.Profile, Seed: h.par.Seed}
	for _, c := range snapshotCases() {
		e, err := h.benchCase(c)
		if err != nil {
			return fmt.Errorf("snapshot %s: %w", c, err)
		}
		snap.Models = append(snap.Models, e)
	}
	if err := h.emit(snapshotTable(snap), "snapshot.csv"); err != nil {
		return err
	}
	if outFile != "" {
		buf, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outFile, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", outFile)
	}
	if checkFile != "" {
		return checkSnapshot(snap, checkFile)
	}
	return nil
}

// benchCase measures one model: both per-move benchmarks share the tile-cost
// precomputation and walk deterministic move sequences drawn from the same
// seed and operator mix, so the ratio isolates the evaluator strategy.
func (h *harness) benchCase(c exp.Case) (BenchEntry, error) {
	cfg, err := hw.Platform(c.Platform)
	if err != nil {
		return BenchEntry{}, err
	}
	g, err := models.Build(c.Workload, c.Batch)
	if err != nil {
		return BenchEntry{}, err
	}
	s, err := core.Parse(g, core.DefaultEncoding(g, 1))
	if err != nil {
		return BenchEntry{}, err
	}
	cs := coresched.New(cfg)
	tc := sim.PrecomputeTileCosts(s, cs)
	opt := sim.Options{BufferBudget: cfg.GBufBytes, TileCosts: tc}
	seed := h.par.Seed

	// Fixed-length walks, best wall time of benchReps repetitions: an
	// adaptive-round benchmark (testing.Benchmark) proved too noisy for a
	// CI-gated ratio, while min-of-reps over an identical deterministic
	// walk is stable to a few percent and keeps alloc counts exact.
	var stats sim.IncStats
	incBench := bestOf(func() moveBench {
		ev, err := sim.NewIncremental(s.Clone(), cs, opt)
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(seed))
		mb := measureMoves(incBenchMoves, func() {
			if !proposeIncMove(ev, rng) {
				return
			}
			if _, err := ev.EvaluateProposal(); err != nil {
				ev.Reject()
				return
			}
			if rng.Intn(2) == 0 {
				ev.Accept()
			} else {
				ev.Reject()
			}
		})
		stats = ev.Stats()
		return mb
	})

	fullBench := bestOf(func() moveBench {
		cur := s.Clone()
		rng := rand.New(rand.NewSource(seed))
		return measureMoves(fullBenchMoves, func() {
			cand := cur.Clone()
			if !proposeFullMove(cand, rng) {
				return
			}
			if _, err := sim.Evaluate(cand, cs, opt); err != nil {
				return
			}
			if rng.Intn(2) == 0 {
				cur = cand
			}
		})
	})

	e := BenchEntry{
		Model: c.Workload, Platform: c.Platform, Batch: c.Batch,
		Tiles: s.NumTiles(), Tensors: len(s.Tensors),
		IncNsPerMove:      incBench.nsPerMove,
		IncAllocsPerMove:  incBench.allocsPerMove,
		FullNsPerMove:     fullBench.nsPerMove,
		FullAllocsPerMove: fullBench.allocsPerMove,
	}
	if e.IncNsPerMove > 0 {
		e.Speedup = e.FullNsPerMove / e.IncNsPerMove
	}
	if stats.Proposals > 0 {
		e.ResumedFrac = float64(stats.Resumed) / float64(stats.Proposals)
	}
	if stats.EventsTotal > 0 {
		e.EventsFrac = float64(stats.EventsSimulated) / float64(stats.EventsTotal)
	}
	// stats covers one repetition: the warmup and the timed moves.
	e.EventsPerStep = float64(stats.EventsSimulated) / float64(incBenchMoves+incBenchMoves/10)

	err = stage1Walk(g, cfg, h.par, &e)
	return e, err
}

// stage1Walk runs stage 1 on g serially (one chain) at the parameters' seed
// and profile, and records its cache misses in e's stage-1 columns: how
// many there were, the fraction of their tiles the chain's arena folded,
// the FLG plans looked up per miss, the fraction of their layers bookkept
// afresh, and the run's heap allocations per miss, the fewest of benchReps
// runs. Every run makes the same misses: it starts from a fresh explorer
// and cache.
func stage1Walk(g *graph.Graph, cfg hw.Config, par soma.Params, e *BenchEntry) error {
	par.Chains, par.Workers = 1, 1
	layers := int64(len(g.ComputeLayers()))
	for r := 0; r < benchReps; r++ {
		x := soma.New(g, cfg, soma.EDP(), par)
		x.Reg = obs.NewRegistry()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := x.RunStage1(context.Background(), cfg.GBufBytes, par.Seed)
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		count := func(name string) int64 { return x.Reg.Counter(name, "").Value() }
		misses := count("sim_arena_evals_total")
		e.Stage1Misses = misses
		if tiles := count("sim_arena_tiles_total"); tiles > 0 {
			e.Stage1FoldedFrac = float64(count("sim_arena_tiles_folded_total")) / float64(tiles)
		}
		if misses > 0 {
			e.Stage1LookupsPerMiss = float64(count("sim_arena_memo_lookups_total")) / float64(misses)
			e.Stage1LoweredFrac = float64(count("sim_arena_layers_bookkept_total")) / float64(misses*layers)
		}
		if a := float64(after.Mallocs-before.Mallocs) / float64(max(misses, 1)); r == 0 || a < e.Stage1AllocsPerMiss {
			e.Stage1AllocsPerMiss = a
		}
	}
	return nil
}

// The per-move measurement walks a deterministic move sequence and times a
// fixed number of moves, sized per path so the timed window stays well
// above scheduler-noise scale (the incremental path is ~1000x faster per
// move, so it gets proportionally more moves). benchReps repetitions run
// and the minimum wins: CI gates on the resulting ratio, so the estimator
// must be stable, and min-of-reps over a >=100ms window is.
const (
	incBenchMoves  = 50000
	fullBenchMoves = 2000
	benchReps      = 5
)

type moveBench struct {
	nsPerMove     float64
	allocsPerMove float64
}

// measureMoves times moves invocations of step after a warmup of a tenth as
// many, reporting wall time and heap allocations per move.
func measureMoves(moves int, step func()) moveBench {
	for i := 0; i < moves/10; i++ {
		step()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < moves; i++ {
		step()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return moveBench{
		nsPerMove:     float64(elapsed.Nanoseconds()) / float64(moves),
		allocsPerMove: float64(after.Mallocs-before.Mallocs) / float64(moves),
	}
}

// bestOf runs the measurement benchReps times and keeps the fastest wall
// time and the smallest allocation count (allocations are deterministic;
// the min discards GC bookkeeping noise).
func bestOf(run func() moveBench) moveBench {
	best := run()
	for i := 1; i < benchReps; i++ {
		mb := run()
		if mb.nsPerMove < best.nsPerMove {
			best.nsPerMove = mb.nsPerMove
		}
		if mb.allocsPerMove < best.allocsPerMove {
			best.allocsPerMove = mb.allocsPerMove
		}
	}
	return best
}

// proposeIncMove applies one random stage-2 DLSA operator to the incremental
// evaluator, leaving a pending proposal when it returns true. The operator
// mix mirrors soma's stage2Moves.Propose (uniform tensor choice instead of
// the size-weighted picker: both benchmark paths use the same draws, so the
// comparison stays fair).
func proposeIncMove(ev *sim.Incremental, rng *rand.Rand) bool {
	s := ev.Schedule()
	id := rng.Intn(len(s.Tensors))
	if rng.Intn(2) == 0 {
		return ev.MoveTensor(ev.PosOf(id), rng.Intn(len(s.Order)))
	}
	return ev.SetLiving(id, s.Tensors[id].Living()+soma.LivingJitter(s, rng))
}

// proposeFullMove applies the identically-drawn operator directly to a
// schedule clone (the historical stage-2 path).
func proposeFullMove(s *core.Schedule, rng *rand.Rand) bool {
	id := rng.Intn(len(s.Tensors))
	if rng.Intn(2) == 0 {
		from := -1
		for p, o := range s.Order {
			if o == id {
				from = p
				break
			}
		}
		return s.MoveTensor(from, rng.Intn(len(s.Order)))
	}
	return s.SetLiving(id, s.Tensors[id].Living()+soma.LivingJitter(s, rng))
}

func snapshotTable(snap BenchSnapshot) *report.Table {
	t := report.New("per-move evaluation snapshot (stage 2) and stage-1 misses", "model", "platform",
		"tiles", "tensors", "inc ns/move", "full ns/move", "speedup",
		"allocs inc/full", "resumed", "events", "events/step",
		"s1 misses", "s1 folded", "s1 lookups/miss", "s1 lowered", "s1 allocs/miss")
	for _, e := range snap.Models {
		t.Add(e.Model, e.Platform,
			fmt.Sprintf("%d", e.Tiles), fmt.Sprintf("%d", e.Tensors),
			fmt.Sprintf("%.0f", e.IncNsPerMove),
			fmt.Sprintf("%.0f", e.FullNsPerMove),
			fmt.Sprintf("%.2fx", e.Speedup),
			fmt.Sprintf("%.0f/%.0f", e.IncAllocsPerMove, e.FullAllocsPerMove),
			fmt.Sprintf("%.0f%%", 100*e.ResumedFrac),
			fmt.Sprintf("%.0f%%", 100*e.EventsFrac),
			fmt.Sprintf("%.1f", e.EventsPerStep),
			fmt.Sprintf("%d", e.Stage1Misses),
			fmt.Sprintf("%.0f%%", 100*e.Stage1FoldedFrac),
			fmt.Sprintf("%.2f", e.Stage1LookupsPerMiss),
			fmt.Sprintf("%.0f%%", 100*e.Stage1LoweredFrac),
			fmt.Sprintf("%.1f", e.Stage1AllocsPerMiss))
	}
	return t
}

// fracSlack is how far, in absolute terms, a model's resumed, re-simulated
// event and stage-1 folded-tile and bookkept-layer fractions may move the
// wrong way before the snapshot check fails; stepSlack is how far, relative
// to the committed value, its re-simulated events per walk step and its
// stage-1 FLG memo lookups per miss may rise.
const (
	fracSlack = 0.02
	stepSlack = 0.05
)

// checkSnapshot compares a fresh measurement against the committed snapshot
// and returns an error describing every regression. Every gated quantity is
// machine-portable: allocation counts, the resumed, re-simulated event,
// folded-tile and bookkept-layer fractions, the events per step and the
// lookups per miss are deterministic for a given build, and the 3x floor is a same-machine ratio, so none depends on
// how fast the CI runner happens to be. Absolute ns/move is reported but not
// gated (docs/performance.md discusses the rules). A column the committed
// snapshot lacks, because it predates the column, is not gated.
func checkSnapshot(fresh BenchSnapshot, path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var want BenchSnapshot
	if err := json.Unmarshal(buf, &want); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var cols struct {
		Models []map[string]json.RawMessage `json:"models"`
	}
	if err := json.Unmarshal(buf, &cols); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	base := make(map[string]BenchEntry, len(want.Models))
	has := make(map[string]map[string]json.RawMessage, len(want.Models))
	for i, e := range want.Models {
		base[e.Model], has[e.Model] = e, cols.Models[i]
	}

	var fails []string
	bestSpeedup := 0.0
	for _, e := range fresh.Models {
		w, ok := base[e.Model]
		if !ok {
			continue // model added after the snapshot: nothing to compare
		}
		bestSpeedup = max(bestSpeedup, e.Speedup)
		// worse reports the regression when the committed snapshot has the
		// column and the measurement crosses its bound.
		worse := func(col string, crossed bool, format string, args ...any) {
			if _, ok := has[e.Model][col]; ok && crossed {
				fails = append(fails, e.Model+": "+fmt.Sprintf(format, args...))
			}
		}
		// >20% allocation regressions per model (plus one alloc of
		// absolute slack: the committed counts are small, and a counter
		// artifact must not fail CI on 20% of 2 allocs). Allocation counts
		// are deterministic, so these gates never flake.
		worse("inc_allocs_per_move", e.IncAllocsPerMove > w.IncAllocsPerMove*1.2+1,
			"incremental allocs/move %.1f exceeds committed %.1f by >20%%", e.IncAllocsPerMove, w.IncAllocsPerMove)
		worse("full_allocs_per_move", e.FullAllocsPerMove > w.FullAllocsPerMove*1.2+1,
			"full allocs/move %.1f exceeds committed %.1f by >20%%", e.FullAllocsPerMove, w.FullAllocsPerMove)
		worse("stage1_allocs_per_miss", e.Stage1AllocsPerMiss > w.Stage1AllocsPerMiss*1.2+1,
			"stage-1 allocs/miss %.1f exceeds committed %.1f by >20%%", e.Stage1AllocsPerMiss, w.Stage1AllocsPerMiss)
		// The incremental path's own work: how often a proposal resumes
		// from a checkpoint, what share of the merge it re-simulates and
		// how much it re-simulates per step of the walk. All are
		// deterministic for the fixed-seed move count, so unlike a timing
		// ratio they neither flake on a slow runner nor move when the full
		// path gets faster. So is stage 1's share of tiles folded.
		worse("resumed_frac", e.ResumedFrac < w.ResumedFrac-fracSlack,
			"resumed fraction %.3f fell below committed %.3f", e.ResumedFrac, w.ResumedFrac)
		worse("events_frac", e.EventsFrac > w.EventsFrac+fracSlack,
			"re-simulated event fraction %.3f rose above committed %.3f", e.EventsFrac, w.EventsFrac)
		worse("events_per_step", e.EventsPerStep > w.EventsPerStep*(1+stepSlack),
			"re-simulated events per step %.1f rose above committed %.1f", e.EventsPerStep, w.EventsPerStep)
		worse("stage1_folded_frac", e.Stage1FoldedFrac > w.Stage1FoldedFrac+fracSlack,
			"stage-1 folded-tile fraction %.3f rose above committed %.3f", e.Stage1FoldedFrac, w.Stage1FoldedFrac)
		worse("stage1_lowered_frac", e.Stage1LoweredFrac > w.Stage1LoweredFrac+fracSlack,
			"stage-1 bookkept-layer fraction %.3f rose above committed %.3f", e.Stage1LoweredFrac, w.Stage1LoweredFrac)
		worse("stage1_lookups_per_miss", e.Stage1LookupsPerMiss > w.Stage1LookupsPerMiss*(1+stepSlack),
			"stage-1 FLG memo lookups per miss %.2f rose above committed %.2f", e.Stage1LookupsPerMiss, w.Stage1LookupsPerMiss)
	}
	// The PR's acceptance floor stays enforced: at least one zoo model must
	// keep a >=3x incremental speedup.
	if bestSpeedup < 3 {
		fails = append(fails, fmt.Sprintf(
			"no model reaches the 3x incremental speedup floor (best %.2fx)", bestSpeedup))
	}
	if len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "snapshot regression:", f)
		}
		return fmt.Errorf("%d snapshot regression(s) vs %s", len(fails), path)
	}
	fmt.Printf("snapshot check vs %s: ok (%d models, best speedup %.2fx)\n",
		path, len(base), bestSpeedup)
	return nil
}
