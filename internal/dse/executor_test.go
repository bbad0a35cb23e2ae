package dse

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"soma/internal/engine"
)

// shuffler is a fake remote Executor exercising the delivery contract: it
// solves the batch on the local pool into a buffer, then delivers the rows
// in reverse sequence order, following every other one with a duplicate
// that carries a different payload.
type shuffler struct {
	repeated int // duplicates delivered
	reported int // duplicates deliver reported as not new
	lost     int // first deliveries deliver wrongly refused
}

func (s *shuffler) Execute(ctx context.Context, b *Batch, deliver func(pos int, row Row) bool) error {
	rows := make([]Row, len(b.Seq)) // each solve writes its own element
	if err := b.Local(ctx, b.Pos, func(pos int, row Row) bool {
		rows[pos] = row
		return true
	}); err != nil {
		return err
	}
	for i := len(b.Pos) - 1; i >= 0; i-- {
		pos := b.Pos[i]
		if !deliver(pos, rows[pos]) {
			s.lost++
		}
		if i%2 == 0 {
			dup := Row{Point: rows[pos].Point, Fidelity: b.Fidelity, Err: "duplicate payload"}
			s.repeated++
			if !deliver(pos, dup) {
				s.reported++
			}
		}
	}
	return nil
}

// TestExecutorContract: an executor that delivers out of order and twice
// must leave the journal byte-identical to a serial local run (so the first
// delivery wins), see every duplicate reported, and produce exactly one
// point-done or point-error event per committed point - for an exhaustive
// and an adaptive spec alike.
func TestExecutorContract(t *testing.T) {
	for name, sw := range map[string]Sweep{
		"exhaustive": fastSweep(1),
		"adaptive":   adaptiveFixture(t, false, 1),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			serial := filepath.Join(dir, "serial.jsonl")
			if _, err := Run(context.Background(), sw, Options{Journal: serial}); err != nil {
				t.Fatal(err)
			}

			var mu sync.Mutex
			finished := map[string]int{}
			hooks := &engine.Hooks{Event: func(e engine.Event) {
				if e.Kind == "point-done" || e.Kind == "point-error" {
					mu.Lock()
					finished[fmt.Sprintf("%s/%d", e.Stage, e.Iter)]++
					mu.Unlock()
				}
			}}
			ex := &shuffler{}
			shuffled := filepath.Join(dir, "shuffled.jsonl")
			out, err := Run(context.Background(), sw, Options{Journal: shuffled, Hooks: hooks, Executor: ex})
			if err != nil {
				t.Fatal(err)
			}

			want, err := os.ReadFile(serial)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(shuffled)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("journal through the shuffling executor differs from serial:\n--- serial ---\n%s\n--- shuffled ---\n%s", want, got)
			}
			if ex.lost != 0 {
				t.Fatalf("%d first deliveries were refused", ex.lost)
			}
			if ex.repeated == 0 || ex.reported != ex.repeated {
				t.Fatalf("%d of %d duplicates reported as not new", ex.reported, ex.repeated)
			}

			commits := out.Points
			if out.Adaptive != nil {
				commits += out.Adaptive.Promotions
			}
			if len(finished) != commits {
				t.Fatalf("point-done/point-error for %d points, want %d commits", len(finished), commits)
			}
			for key, n := range finished {
				if n != 1 {
					t.Fatalf("point %s finished %d times, want once", key, n)
				}
			}
		})
	}
}

// lazy is an Executor that returns without delivering anything.
type lazy struct{}

func (lazy) Execute(context.Context, *Batch, func(int, Row) bool) error { return nil }

// An executor that returns before delivering every position fails the run
// instead of committing zero-value rows.
func TestExecutorMustDeliverEverything(t *testing.T) {
	if _, err := Run(context.Background(), fastSweep(1), Options{Executor: lazy{}}); err == nil {
		t.Fatal("run succeeded although the executor delivered nothing")
	}
}
