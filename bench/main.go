// Command bench is the repository's end-to-end and per-layer benchmark. It
// drives the scheduler only through public surfaces - engine.Run, the somad
// HTTP API served by service.New on loopback, sim.EvalCache, and the core,
// coresched and sim calls a replay needs - and prints one JSON result as the
// last line of standard output. README.md describes the workloads, the
// metrics and how to compare two commits.
//
//	bench -workload solve-edge-zoo -seed 1 -seconds 15 -trace 0
//	bench -runs 5 > A.jsonl      # every workload, seeds 1..5, one child process each
//	bench compare A.jsonl B.jsonl
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"soma/internal/obs"
)

// runDeadline bounds one workload run, well inside the three minutes a run
// may take.
const runDeadline = 150 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run; empty runs every workload, each in its own child process")
	seed := fs.Int64("seed", 1, "input seed: it orders the solves, the sweep axes and the jobs")
	seconds := fs.Int("seconds", 15, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics and writes a Chrome trace per workload")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "where -trace 1 writes <workload>.trace.json")
	runs := fs.Int("runs", 1, "with no -workload: runs of each workload, at seeds seed, seed+1, ...")
	_ = fs.Parse(os.Args[1:]) // ExitOnError
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		os.Exit(2)
	}
	rc := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	if *name == "" {
		os.Exit(runAll(rc, *runs, *traceDir))
	}
	os.Exit(runOne(*name, rc, *traceDir))
}

// runOne runs a single workload and prints its result line. A failed output
// check still prints the result, then exits 1.
func runOne(name string, rc runConfig, traceDir string) int {
	w, err := findWorkload(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	var tr *obs.Tracer
	if rc.traced {
		tr = obs.NewTracer()
	}
	o, err := runWorkload(ctx, w, rc, fullScale, tr)
	if err == nil && tr != nil {
		err = writeTrace(tr, filepath.Join(traceDir, name+".trace.json"))
	}
	var res *result
	if err == nil {
		res, err = score(o, rc.traced)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func writeTrace(tr *obs.Tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runLine is one workload run as runAll prints it and compare reads it.
type runLine struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Traced   bool    `json:"traced"`
	Result   *result `json:"result"`
}

// runAll runs every workload runs times, each run in a child process of this
// binary so set-up time and peak memory belong to one workload, and prints a
// runLine per run.
func runAll(rc runConfig, runs int, traceDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	trace := "0"
	if rc.traced {
		trace = "1"
	}
	code := 0
	for r := 0; r < runs; r++ {
		seed := rc.seed + int64(r)
		for _, w := range workloads {
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(int(rc.seconds/time.Second)), "-trace", trace, "-trace-dir", traceDir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			res, perr := lastResult(out)
			if err = errors.Join(err, perr); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, seed, err)
				code = 1
				if res == nil {
					continue
				}
			}
			line, err := json.Marshal(runLine{Workload: w.name, Seed: seed, Traced: rc.traced, Result: res})
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			fmt.Println(string(line))
		}
	}
	return code
}

// lastResult decodes the result JSON on the last line of a run's output.
func lastResult(out []byte) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

// readRuns loads a file of runLines.
func readRuns(path string) ([]runLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r runLine
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Result != nil {
			runs = append(runs, r)
		}
	}
	return runs, sc.Err()
}
