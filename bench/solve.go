package main

import (
	"context"
	"fmt"
	"time"

	"soma/internal/engine"
	"soma/internal/hw"
	"soma/internal/models"
	"soma/internal/obs"
	"soma/internal/report"
)

// solveTask is one distinct engine request of a solve workload.
type solveTask struct {
	key string
	req engine.Request
}

// runZoo solves the paper's edge CNN zoo plus GPT-2 Small decode, each model
// at search seeds 1, 2, ...
func runZoo(ctx context.Context, rc runConfig, sc scale, tr *obs.Tracer) (*outcome, error) {
	return runSolves(ctx, rc, sc, tr, "solve-edge-zoo", func() ([]solveTask, error) {
		var tasks []solveTask
		for i := 0; i < sc.zooSeeds; i++ {
			for _, model := range sc.zooModels {
				req, err := solveRequest(sc, model, searchSeed(i))
				if err != nil {
					return nil, err
				}
				tasks = append(tasks, solveTask{key: fmt.Sprintf("%s/s%d", model, req.Params.Seed), req: req})
			}
		}
		return tasks, nil
	})
}

// runPrefill solves the prefill phase of GPT-2 Small cut to its first
// transformer blocks (all 512 tokens, full vocabulary head), at search seeds
// 1, 2, ... A full 12-block solve takes 15-35 s, too long to repeat within
// one run; the cut keeps what makes prefill slow: stage-1 winners of
// thousands of tiles, whose parse and merge dominate every cache miss.
func runPrefill(ctx context.Context, rc runConfig, sc scale, tr *obs.Tracer) (*outcome, error) {
	return runSolves(ctx, rc, sc, tr, "solve-gpt2s-prefill", func() ([]solveTask, error) {
		g := models.GPT2Prefill(sc.prefill, 1)
		model := sc.prefill.Name + "-prefill"
		var tasks []solveTask
		for i := 0; i < sc.prefillSeeds; i++ {
			req, err := solveRequest(sc, model, searchSeed(i))
			if err != nil {
				return nil, err
			}
			req.Graph = g
			tasks = append(tasks, solveTask{key: fmt.Sprintf("%s/s%d", model, req.Params.Seed), req: req})
		}
		return tasks, nil
	})
}

// solveRequest is one edge-platform solve of model at seed.
func solveRequest(sc scale, model string, seed int64) (engine.Request, error) {
	par, err := sc.search.Params()
	if err != nil {
		return engine.Request{}, err
	}
	par.Seed = seed
	return engine.Request{Model: model, Platform: "edge", Params: par}, nil
}

// runSolves is the serial solve loop both solve workloads share: one client
// calls engine.Run on the tasks in seeded order, pass after pass, until the
// timed phase is over. Set-up builds the task list and runs one warm-up solve
// so that lazy runtime set-up is not charged to the first timed solve.
func runSolves(ctx context.Context, rc runConfig, sc scale, tr *obs.Tracer, name string,
	build func() ([]solveTask, error)) (*outcome, error) {
	edge, err := hw.Platform("edge")
	if err != nil {
		return nil, err
	}
	tasks, setup, err := timeSetup(sc.setupReps, func() ([]solveTask, error) {
		tasks, err := build()
		if err != nil {
			return nil, err
		}
		warm, err := solveRequest(sc, sc.warmup, searchSeed(0))
		if err != nil {
			return nil, err
		}
		_, err = engine.Run(ctx, warm, nil)
		return tasks, err
	}, func([]solveTask) error { return nil })
	if err != nil {
		return nil, err
	}

	o := &outcome{setup: setup, edp: map[string]float64{}}
	if rc.traced {
		o.probe = newProbe(tr, name)
	}
	track := tr.Track(name)
	type solved struct {
		task solveTask
		res  *report.Result
	}
	var runs []solved
	o.phase.start()
	closedLoop(rc.seconds, 1, len(tasks), func(_, i int) {
		t := tasks[bagIndex(rc.seed, len(tasks), i)]
		o.attempted++
		span := track.Start("engine.Run", "bench").Arg("request", t.key)
		start := time.Now()
		var res *report.Result
		var err error
		if o.probe != nil {
			res, err = o.probe.solve(ctx, t.req)
		} else {
			res, err = engine.Run(ctx, t.req, nil)
		}
		wall := time.Since(start)
		span.End()
		if err != nil {
			o.fail(1, "%s: %v", t.key, err)
			return
		}
		o.ops = append(o.ops, opRecord{key: t.key, wall: wall})
		runs = append(runs, solved{t, res})
		o.phase.busyS += wall.Seconds()
	})
	o.phase.stop()

	first := map[string]*report.Result{}
	for _, r := range runs {
		if want, ok := first[r.task.key]; ok {
			if err := sameAnswer(r.res, want); err != nil {
				o.fail(1, "%s repeated: %v", r.task.key, err)
			}
		} else {
			first[r.task.key] = r.res
			o.edp[r.task.key] = edp(r.res)
		}
		if err := checkSolve(r.res, edge); err != nil {
			o.fail(1, "%s: %v", r.task.key, err)
		}
		if o.probe != nil {
			o.phase.engineS += r.res.Telemetry.SolveWallMS / 1e3
			o.phase.solves++
			o.phase.hits += r.res.Search.CacheHits
			o.phase.misses += r.res.Search.CacheMisses
		}
	}
	if o.probe != nil {
		for _, res := range first {
			if err := o.probe.replay(res, edge); err != nil {
				return nil, err
			}
		}
	}
	return o, nil
}
