package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"soma/internal/dse"
	"soma/internal/models"
	"soma/internal/obs"
	"soma/internal/report"
)

// runConfig is one benchmark run as the command line describes it.
type runConfig struct {
	seed    int64
	seconds time.Duration
	traced  bool
}

// scale sizes the workloads: fullScale is what the benchmark measures, and
// the tests run the same code at a toy scale.
type scale struct {
	// search is the search profile of every solve, direct or over HTTP.
	search dse.Search
	// setupReps is how many times each workload sets up; setup_s is the
	// median.
	setupReps int
	// warmup is the model set-up solves, at searchSeed(0), before timing
	// starts.
	warmup string

	zooModels []string
	zooSeeds  int

	prefill      models.GPTConfig
	prefillSeeds int

	sweepModels     []string
	sweepGBufMB     []int64
	sweepObjectives []report.Objective
	sweepSeeds      int

	warmModels []string
	warmSeeds  int
}

var fullScale = scale{
	search:    dse.Search{Profile: "fast"},
	setupReps: 3,
	warmup:    "gpt2s-decode",

	zooModels: []string{"mobilenetv2", "resnet50", "randwire", "ires", "gpt2s-decode"},
	zooSeeds:  4,

	prefill:      gpt2sBlocks(2),
	prefillSeeds: 5,

	sweepModels:     []string{"mobilenetv2", "resnet50"},
	sweepGBufMB:     []int64{4, 8, 16},
	sweepObjectives: []report.Objective{{N: 1, M: 1}, {N: 1, M: 0}, {N: 0, M: 1}},
	sweepSeeds:      2,

	warmModels: []string{"mobilenetv2", "resnet50", "gpt2s-decode"},
	warmSeeds:  5,
}

// searchSeed is the search seed of a workload's i-th seed slot: 1, 2, ...
// Set-up solves use the first.
// Search seeds are part of the workload's definition, not drawn from the
// run's seed. The Buffer Allocator runs 2, 4 or 6 passes depending on the
// search seed, so one solve of a model takes up to 3x longer at one seed than
// at another; averaging that out would take more solves than a run holds
// (with seeds drawn per run, 10 runs of solve-gpt2s-prefill spread 0.15). The
// run's seed orders the requests, the sweep's axes and the jobs instead.
func searchSeed(i int) int64 { return int64(i + 1) }

// gpt2sBlocks is GPT-2 Small cut to its first n transformer blocks.
func gpt2sBlocks(n int) models.GPTConfig {
	c := models.GPT2Small()
	c.Name = fmt.Sprintf("gpt2s%dblk", n)
	c.Layers = n
	return c
}

// workload is one named traffic mix.
type workload struct {
	name string
	run  func(ctx context.Context, rc runConfig, sc scale, tr *obs.Tracer) (*outcome, error)
}

var workloads = []workload{
	{"solve-edge-zoo", runZoo},
	{"solve-gpt2s-prefill", runPrefill},
	{"sweep-fig7", runSweep},
	{"somad-warm", runWarm},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (%s)", name, strings.Join(names, ", "))
}

// opRecord is one timed operation: a solve, a sweep request or a job.
type opRecord struct {
	// key names the distinct request the operation served; repetitions of
	// one request share it.
	key  string
	wall time.Duration
}

// outcome is what a workload run hands back for scoring.
type outcome struct {
	setup []time.Duration
	ops   []opRecord
	// peakHeap is the largest live heap, in bytes, a collection found.
	peakHeap uint64
	// speed scales wall times to the reference host speed (hostspeed.go).
	speed float64
	// edp is the final energy-delay product of every distinct solve, grid
	// row or job request.
	edp       map[string]float64
	attempted int
	failed    int

	// The traced run also fills the timed-phase layer accounting and the
	// direct-solve probe.
	phase phase
	probe *probe
}

// phase accounts for the timed phase layer by layer; only traced runs report
// it.
type phase struct {
	engineS float64 // wall time spent inside engine solves
	solves  int
	busyS   float64 // operation wall time times the parallelism it had
	hits    int64   // evaluation-cache lookups
	misses  int64
	mem0    runtime.MemStats
	mem1    runtime.MemStats
}

func (p *phase) start() { runtime.ReadMemStats(&p.mem0) }
func (p *phase) stop()  { runtime.ReadMemStats(&p.mem1) }

// fail counts failed units and reports why on standard error.
func (o *outcome) fail(units int, format string, args ...any) {
	o.failed += units
	fmt.Fprintf(os.Stderr, "bench: check failed: "+format+"\n", args...)
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MarshalJSON writes the value with a fraction or an exponent even when it is
// whole, so that every reader decodes it as a floating-point number:
// encoding/json prints a whole float64 below 1e21, such as an energy-delay
// product above 2^53, as an integer.
func (m metric) MarshalJSON() ([]byte, error) {
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		return nil, fmt.Errorf("metric value %g is not a JSON number", m.Value)
	}
	v := strconv.FormatFloat(m.Value, 'g', -1, 64)
	if !strings.ContainsAny(v, ".e") {
		v += ".0"
	}
	unit, err := json.Marshal(m.Unit)
	if err != nil {
		return nil, err
	}
	return []byte(`{"value":` + v + `,"unit":` + string(unit) + `}`), nil
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// score turns an outcome into the printed result: the end-to-end metrics for
// an untraced run, the per-layer metrics for a traced one. Every time is
// scaled to the reference host speed.
func score(o *outcome, traced bool) (*result, error) {
	m := metrics{}
	var err error
	if traced {
		err = layerMetrics(o, m)
	} else {
		err = endToEnd(o, m)
	}
	if err != nil {
		return nil, err
	}
	for name, v := range m {
		switch v.Unit {
		case "s", "ms", "us", "ns":
			v.Value *= o.speed
			m[name] = v
		}
	}
	if traced {
		m.set("host.speed", "ratio", o.speed)
	}
	return &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m}, nil
}

// endToEnd computes the user-visible metrics. Latency rests on per-request
// medians, so a partly repeated pass cannot tilt it toward whichever
// requests happened to run twice.
func endToEnd(o *outcome, m metrics) error {
	walls := map[string][]float64{}
	for _, op := range o.ops {
		walls[op.key] = append(walls[op.key], op.wall.Seconds())
	}
	var medians []float64
	for _, w := range walls {
		medians = append(medians, median(w))
	}
	lat, err := geomean(medians)
	if err != nil {
		return fmt.Errorf("latency: %w", err)
	}
	edps := make([]float64, 0, len(o.edp))
	for _, v := range o.edp {
		edps = append(edps, v)
	}
	cost, err := geomean(edps)
	if err != nil {
		return fmt.Errorf("cost: %w", err)
	}
	setup := make([]float64, len(o.setup))
	for i, d := range o.setup {
		setup[i] = d.Seconds()
	}
	m.set("latency_s_geomean", "s", lat)
	m.set("cost_geomean", "pJ.ns", cost)
	m.set("setup_s", "s", median(setup))
	return nil
}

// runWorkload runs w under the host speed probe and the live-heap watch.
func runWorkload(ctx context.Context, w workload, rc runConfig, sc scale, tr *obs.Tracer) (*outcome, error) {
	stopHeap := watchHeap()
	probe := startSpeedProbe()
	o, err := w.run(ctx, rc, sc, tr)
	peak := stopHeap()
	speed, perr := probe.finish()
	if err = errors.Join(err, perr); err != nil {
		return nil, err
	}
	o.peakHeap, o.speed = peak, speed
	return o, nil
}

// watchHeap tracks the largest live heap any garbage collection finds until
// stop is called: a sentinel object's finalizer runs once per collection
// cycle, reads the live heap that cycle marked and re-arms itself. Unlike the
// resident-set high-water mark, the peak live heap does not depend on when
// the collector happened to run.
func watchHeap() (stop func() uint64) {
	var peak atomic.Uint64
	var done atomic.Bool
	sample := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var arm func()
	arm = func() {
		runtime.SetFinalizer(new([4]*byte), func(*[4]*byte) {
			rtmetrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak.Load() {
				peak.Store(v)
			}
			if !done.Load() {
				arm()
			}
		})
	}
	arm()
	return func() uint64 {
		done.Store(true)
		return peak.Load()
	}
}

// closedLoop runs do(client, i) from the given number of client goroutines,
// each issuing its next operation only after the previous one returned. The
// operation index i counts up across clients; no new operation starts once
// the phase has lasted d and at least minOps have started. It returns when
// every client has finished.
func closedLoop(d time.Duration, clients, minOps int, do func(client, i int)) {
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= minOps && time.Since(start) >= d {
					return
				}
				do(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// bagIndex maps operation i onto one of n requests: every run of n
// consecutive operations covers each request once, in an order shuffled by
// the seed.
func bagIndex(seed int64, n, i int) int {
	return rand.New(rand.NewSource(seed + int64(i/n))).Perm(n)[i%n]
}

// shuffled returns a copy of xs in an order drawn from rng.
func shuffled[T any](rng *rand.Rand, xs []T) []T {
	s := append([]T(nil), xs...)
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	return s
}

// timeSetup runs setup reps times and returns the last rep's value with every
// rep's duration; the values of earlier reps are released with drop.
func timeSetup[T any](reps int, setup func() (T, error), drop func(T) error) (T, []time.Duration, error) {
	var last T
	var times []time.Duration
	for i := 0; i < reps; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start))
		if i < reps-1 {
			if err := drop(v); err != nil {
				return last, nil, fmt.Errorf("setup: %w", err)
			}
		}
		last = v
	}
	return last, times, nil
}

// edp is the energy-delay product of a result payload.
func edp(res *report.Result) float64 { return res.Metrics.EnergyPJ * res.Metrics.LatencyNS }
