package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBufOverflowRejected: a -buf whose byte count overflows int64 is a
// usage error, not a solve on a wrapped (negative) buffer. The test binary
// re-runs itself as the soma command.
func TestBufOverflowRejected(t *testing.T) {
	if args := os.Getenv("SOMA_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"soma"}, strings.Fields(args)...)
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestBufOverflowRejected$")
	cmd.Env = append(os.Environ(),
		"SOMA_MAIN_ARGS=-model mobilenetv2 -profile fast -buf 8796093022208")
	out, err := cmd.CombinedOutput()
	if err == nil || !strings.Contains(string(out), "-buf wants at most 8796093022207 MB") {
		t.Fatalf("soma -buf 2^43: err %v, output:\n%s", err, out)
	}
}
