package main

import (
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"soma/internal/dse"
)

// runSoma re-runs the test binary as the soma command with args, from the
// named test, and returns its combined output. The child takes the
// SOMA_MAIN_ARGS branch, which test must check first.
func runSoma(t *testing.T, test string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$")
	cmd.Env = append(os.Environ(), "SOMA_MAIN_ARGS="+strings.Join(args, " "))
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// asSoma runs main with SOMA_MAIN_ARGS and reports true in the child of
// runSoma. main parses a fresh flag set, so the test binary's own -test.*
// flags are not taken for soma flags.
func asSoma() bool {
	args := os.Getenv("SOMA_MAIN_ARGS")
	if args == "" {
		return false
	}
	os.Args = append([]string{"soma"}, strings.Fields(args)...)
	flag.CommandLine = flag.NewFlagSet("soma", flag.ExitOnError)
	main()
	return true
}

// TestBufOverflowRejected: a -buf whose byte count overflows int64 is a
// usage error, not a solve on a wrapped (negative) buffer.
func TestBufOverflowRejected(t *testing.T) {
	if asSoma() {
		return
	}
	out, err := runSoma(t, "TestBufOverflowRejected",
		"-model", "mobilenetv2", "-profile", "fast", "-buf", "8796093022208")
	if err == nil || !strings.Contains(out, "-buf wants at most 8796093022207 MB") {
		t.Fatalf("soma -buf 2^43: err %v, output:\n%s", err, out)
	}
}

// TestClusterSweepGridBound: a sweep sharded over cluster workers whose
// grid exceeds dse.MaxServedPoints is refused up front, since every worker
// would refuse its leases; nothing runs, and no worker is contacted.
func TestClusterSweepGridBound(t *testing.T) {
	if asSoma() {
		return
	}
	sw := dse.Sweep{Models: []string{"mobilenetv2"}, Seeds: make([]int64, dse.MaxServedPoints+1),
		Search: &dse.Search{Profile: "fast"}}
	for i := range sw.Seeds {
		sw.Seeds[i] = int64(i + 1)
	}
	data, err := json.Marshal(sw)
	if err != nil {
		t.Fatal(err)
	}
	spec := filepath.Join(t.TempDir(), "big.json")
	if err := os.WriteFile(spec, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runSoma(t, "TestClusterSweepGridBound",
		"-sweep", spec, "-workers", "127.0.0.1:1,127.0.0.1:2")
	if err == nil || !strings.Contains(out, "sweep expands to 4097 points, limit 4096") {
		t.Fatalf("over-bound cluster sweep: err %v, output:\n%s", err, out)
	}
}
