package dse

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"soma/internal/engine"
	"soma/internal/report"
)

// fastSweep is a 4-point grid (2 buffer sizes x 2 seeds) on the quickest
// model/profile combination in the repo; one full run takes well under a
// second.
func fastSweep(workers int) Sweep {
	return Sweep{
		Name:    "test-grid",
		Models:  []string{"mobilenetv2"},
		GBufMB:  []int64{2, 4},
		Seeds:   []int64{1, 2},
		Search:  &Search{Profile: "fast", Beta1: 2, Beta2: 1},
		Workers: workers,
	}
}

func TestRunGrid(t *testing.T) {
	var mu sync.Mutex
	kinds := map[string]int{}
	hooks := &engine.Hooks{Event: func(e engine.Event) {
		mu.Lock()
		kinds[e.Kind]++
		mu.Unlock()
	}}
	out, err := Run(context.Background(), fastSweep(2), Options{Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	if out.Points != 4 || len(out.Rows) != 4 || out.Failed != 0 || out.Resumed != 0 {
		t.Fatalf("outcome = %+v", out)
	}
	for i, r := range out.Rows {
		if r.Point.Index != i || r.Result == nil || r.Result.Cost <= 0 {
			t.Fatalf("row %d bad: %+v", i, r)
		}
		// In-process rows keep the Raw artifacts for figure callers.
		if r.Result.Raw == nil || r.Result.Raw.Schedule == nil {
			t.Fatalf("row %d lost Raw", i)
		}
	}
	if out.Best() == nil || out.Best().Result.Cost > out.Rows[0].Result.Cost {
		t.Fatalf("best = %+v", out.Best())
	}
	// Two buffer sizes -> a cost-vs-buffer frontier exists and starts at
	// the smaller buffer.
	if len(out.Pareto) == 0 {
		t.Fatal("no pareto front on a 2-buffer grid")
	}
	if first := out.Rows[out.Pareto[0]]; first.Point.GBufMB != 2 {
		t.Fatalf("front must start at the smallest buffer: %+v", first.Point)
	}
	if kinds["sweep-start"] != 1 || kinds["sweep-done"] != 1 ||
		kinds["point-start"] != 4 || kinds["point-done"] != 4 {
		t.Fatalf("event kinds = %v", kinds)
	}
}

func TestJournalIdenticalAcrossWorkerCounts(t *testing.T) {
	dir := t.TempDir()
	paths := map[int]string{1: filepath.Join(dir, "serial.jsonl"), 4: filepath.Join(dir, "par.jsonl")}
	for workers, path := range paths {
		if _, err := Run(context.Background(), fastSweep(workers), Options{Journal: path}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
	serial, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	par, err := os.ReadFile(paths[4])
	if err != nil {
		t.Fatal(err)
	}
	if string(serial) != string(par) {
		t.Fatalf("parallel journal differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, par)
	}
	if lines := strings.Count(string(serial), "\n"); lines != 5 { // header + 4 rows
		t.Fatalf("journal lines = %d", lines)
	}
}

func TestResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	if _, err := Run(context.Background(), fastSweep(1), Options{Journal: full}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a sweep killed after two committed points (plus a torn,
	// half-written third line, as a mid-write kill would leave).
	lines := strings.SplitAfter(string(want), "\n")
	prefix := strings.Join(lines[:3], "") + lines[3][:len(lines[3])/2]
	resumed := filepath.Join(dir, "resumed.jsonl")
	if err := os.WriteFile(resumed, []byte(prefix), 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := Run(context.Background(), fastSweep(1), Options{Journal: resumed})
	if err != nil {
		t.Fatal(err)
	}
	if out.Resumed != 2 {
		t.Fatalf("resumed = %d, want 2", out.Resumed)
	}
	got, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("resumed journal differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}

	// Resuming a complete journal recomputes nothing.
	out, err = Run(context.Background(), fastSweep(1), Options{Journal: full})
	if err != nil {
		t.Fatal(err)
	}
	if out.Resumed != 4 {
		t.Fatalf("complete journal resumed = %d, want 4", out.Resumed)
	}

	// A journal from a different spec must be refused, not mixed.
	other := fastSweep(1)
	other.GBufMB = []int64{2, 8}
	if _, err := Run(context.Background(), other, Options{Journal: full}); err == nil ||
		!strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("foreign journal accepted: %v", err)
	}
}

func TestCancelMidSweepLeavesCleanPrefix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "canceled.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	hooks := &engine.Hooks{Event: func(e engine.Event) {
		if e.Kind == "point-done" && e.Iter == 0 {
			cancel() // stop the grid after the first committed point
		}
	}}
	sw := fastSweep(1)
	_, err := Run(ctx, sw, Options{Journal: path, Hooks: hooks})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	pts, _ := sw.Expand()
	digest, _ := sw.SpecSHA256()
	rows, _, err := loadJournal(path, digest, len(pts), func(int, Row) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(rows) >= len(pts) {
		t.Fatalf("canceled journal rows = %d (want a proper prefix of %d)", len(rows), len(pts))
	}
	for i, r := range rows {
		if r.Point.Index != i {
			t.Fatalf("journal prefix not in order at %d: %+v", i, r.Point)
		}
	}
}

func TestSharedCacheReuseAcrossGridPoints(t *testing.T) {
	search := &Search{Profile: "fast", Beta1: 2, Beta2: 1}
	objectives := []report.Objective{{N: 1, M: 1}, {N: 1, M: 2}}

	// Each objective alone, private caches: the no-sharing baseline.
	var aloneMisses, aloneHits int64
	for _, obj := range objectives {
		sw := Sweep{Models: []string{"mobilenetv2"}, Objectives: []report.Objective{obj},
			Search: search, Workers: 1}
		out, err := Run(context.Background(), sw, Options{})
		if err != nil {
			t.Fatal(err)
		}
		aloneMisses += out.Cache.Misses
		aloneHits += out.Cache.Hits
	}

	// Both objectives in one sweep share the cache: metrics are
	// objective-independent, so neighboring grid points must reuse each
	// other's evaluations and the total miss count must strictly drop.
	sw := Sweep{Models: []string{"mobilenetv2"}, Objectives: objectives,
		Search: search, Workers: 1}
	out, err := Run(context.Background(), sw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Cache.Hits+out.Cache.Misses != aloneHits+aloneMisses {
		t.Fatalf("lookup volume changed with sharing: %+v vs alone hits=%d misses=%d",
			out.Cache, aloneHits, aloneMisses)
	}
	if out.Cache.Misses >= aloneMisses {
		t.Fatalf("no cross-point reuse: shared misses %d >= isolated misses %d",
			out.Cache.Misses, aloneMisses)
	}
	if out.Cache.Hits <= aloneHits {
		t.Fatalf("shared hits %d <= isolated hits %d", out.Cache.Hits, aloneHits)
	}
}

// TestConvergenceRows: a sweep with the convergence field set carries the
// per-point diagnostics summary on every row, serial and parallel journals
// stay byte-identical, and the full Result.Convergence section never
// persists (its samples are cache-warmth-dependent). On a multi-backend grid
// every row's diagnostics are its own backend's: the winner stage is that
// backend's.
func TestConvergenceRows(t *testing.T) {
	sweep := func(workers int) Sweep {
		sw := fastSweep(workers)
		sw.Convergence = true
		return sw
	}
	wantStage := map[string]string{"soma": "stage2", "cocco": "cocco"}
	for _, backends := range [][]string{nil, {"soma", "cocco"}} {
		dir := t.TempDir()
		paths := map[int]string{1: filepath.Join(dir, "serial.jsonl"), 4: filepath.Join(dir, "par.jsonl")}
		outs := map[int]*Outcome{}
		for workers, path := range paths {
			sw := sweep(workers)
			sw.Backends = backends
			out, err := Run(context.Background(), sw, Options{Journal: path})
			if err != nil {
				t.Fatalf("backends %v workers=%d: %v", backends, workers, err)
			}
			outs[workers] = out
		}
		for workers, out := range outs {
			for i, r := range out.Rows {
				if r.Convergence == nil {
					t.Fatalf("workers=%d row %d has no diagnostics", workers, i)
				}
				if r.Convergence.Stage != wantStage[r.Point.Backend] {
					t.Fatalf("workers=%d row %d (%s): winner stage %q, want %q",
						workers, i, r.Point.Label(), r.Convergence.Stage, wantStage[r.Point.Backend])
				}
				if r.Convergence.FinalBest != r.Result.Cost {
					t.Fatalf("workers=%d row %d: diagnostics FinalBest %g != cost %g",
						workers, i, r.Convergence.FinalBest, r.Result.Cost)
				}
				if r.Convergence.TotalMoves <= 0 {
					t.Fatalf("workers=%d row %d: empty diagnostics %+v", workers, i, r.Convergence)
				}
				if s := r.Scrubbed(); s.Result.Convergence != nil {
					t.Fatalf("workers=%d row %d: scrubbed row kept full convergence section", workers, i)
				}
			}
		}
		serial, err := os.ReadFile(paths[1])
		if err != nil {
			t.Fatal(err)
		}
		par, err := os.ReadFile(paths[4])
		if err != nil {
			t.Fatal(err)
		}
		if string(serial) != string(par) {
			t.Fatalf("backends %v: convergence journal differs between serial and parallel runs", backends)
		}
		if !strings.Contains(string(serial), `"convergence":{"stage":`) {
			t.Fatal("journal rows carry no convergence diagnostics")
		}
	}

	// The digest must distinguish convergence sweeps from plain ones, so a
	// plain journal cannot resume into a diagnostics run.
	plain, err := fastSweep(1).SpecSHA256()
	if err != nil {
		t.Fatal(err)
	}
	conv, err := sweep(1).SpecSHA256()
	if err != nil {
		t.Fatal(err)
	}
	if plain == conv {
		t.Fatal("convergence field does not change the spec digest")
	}
}
