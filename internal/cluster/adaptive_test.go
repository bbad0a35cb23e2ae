package cluster

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soma/internal/dse"
)

// adaptiveSweep is fastSweep with the successive-halving driver turned on
// (8 points so the default budget leaves both rungs non-trivial).
func adaptiveSweep() dse.Sweep {
	sw := fastSweep()
	sw.Name = "cluster-adaptive-grid"
	sw.GBufMB = []int64{2, 3, 4, 6}
	sw.Adaptive = &dse.Adaptive{}
	return sw
}

// A sharded adaptive sweep - probe rung leased across workers, promotion
// recomputed on the coordinator, full rung leased again - must write the
// exact bytes a serial dse.RunAdaptive writes, and resume from a journal
// truncated mid-rung-1 to the same bytes.
func TestShardedAdaptiveJournalByteIdentical(t *testing.T) {
	dir := t.TempDir()
	serial := filepath.Join(dir, "serial.jsonl")
	if _, err := dse.Run(context.Background(), adaptiveSweep(), dse.Options{Journal: serial}); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(serial)
	if err != nil {
		t.Fatal(err)
	}

	w1, w2 := startWorker(t), startWorker(t)
	opt := fastOptions(w1.URL, w2.URL)
	sharded := filepath.Join(dir, "sharded.jsonl")
	out, _, err := shard(t, adaptiveSweep(), opt, dse.Options{Journal: sharded})
	if err != nil {
		t.Fatal(err)
	}
	if out.Adaptive == nil || out.Adaptive.Promotions == 0 {
		t.Fatalf("sharded adaptive outcome missing stats: %+v", out.Adaptive)
	}
	got, err := os.ReadFile(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, got) {
		t.Fatal("sharded adaptive journal differs from serial dse.RunAdaptive")
	}

	// Kill-and-resume: keep every probe row plus one full row, resume the
	// cluster run, compare bytes.
	n := out.Points
	lines := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	if len(lines) < n+3 {
		t.Fatalf("journal too short to truncate mid-rung-1: %d lines", len(lines))
	}
	resume := filepath.Join(dir, "resume.jsonl")
	if err := os.WriteFile(resume, []byte(strings.Join(lines[:n+2], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rout, _, err := shard(t, adaptiveSweep(), opt, dse.Options{Journal: resume})
	if err != nil {
		t.Fatal(err)
	}
	if rout.Resumed != n+1 {
		t.Fatalf("resumed %d rows, want %d", rout.Resumed, n+1)
	}
	rgot, err := os.ReadFile(resume)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, rgot) {
		t.Fatal("resumed sharded adaptive journal differs from serial")
	}
}
