package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// decodeTrace parses the Chrome trace-event JSON a tracer writes.
func decodeTrace(t *testing.T, data []byte) map[string]any {
	t.Helper()
	var out map[string]any
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("trace not valid JSON: %v\n%s", err, data)
	}
	if _, ok := out["traceEvents"].([]any); !ok {
		t.Fatalf("no traceEvents array: %s", data)
	}
	return out
}

// TestTraceWellFormed: spans, counters and metadata come out as a valid
// trace-event file with the fields viewers require.
func TestTraceWellFormed(t *testing.T) {
	tr := NewTracer()
	track := tr.Track("engine")
	sp := track.Start("solve", "engine").Arg("backend", "soma")
	track.Counter("best_cost", 123.5)
	sp.End()

	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := decodeTrace(t, b.Bytes())
	evs := out["traceEvents"].([]any)
	var sawProc, sawThread, sawSpan, sawCounter bool
	for _, raw := range evs {
		ev := raw.(map[string]any)
		if _, ok := ev["pid"]; !ok {
			t.Errorf("event missing pid: %v", ev)
		}
		switch ev["ph"] {
		case "M":
			if ev["name"] == "process_name" {
				sawProc = true
			}
			if ev["name"] == "thread_name" {
				sawThread = true
				if args := ev["args"].(map[string]any); args["name"] != "engine" {
					t.Errorf("thread_name args = %v", args)
				}
			}
		case "X":
			sawSpan = true
			if ev["name"] != "solve" || ev["cat"] != "engine" {
				t.Errorf("span = %v", ev)
			}
			if dur, _ := ev["dur"].(float64); dur < 1 {
				t.Errorf("span dur %v < 1", ev["dur"])
			}
			if args := ev["args"].(map[string]any); args["backend"] != "soma" {
				t.Errorf("span args = %v", args)
			}
		case "C":
			sawCounter = true
			if args := ev["args"].(map[string]any); args["value"] != 123.5 {
				t.Errorf("counter args = %v", args)
			}
		}
	}
	if !sawProc || !sawThread || !sawSpan || !sawCounter {
		t.Errorf("missing events: proc=%v thread=%v span=%v counter=%v",
			sawProc, sawThread, sawSpan, sawCounter)
	}
	if out["displayTimeUnit"] != "ms" {
		t.Errorf("displayTimeUnit = %v", out["displayTimeUnit"])
	}
}

// TestTraceTracks: same name returns the same track; different names get
// distinct tids.
func TestTraceTracks(t *testing.T) {
	tr := NewTracer()
	a, b, a2 := tr.Track("a"), tr.Track("b"), tr.Track("a")
	if a != a2 {
		t.Error("same name gave different tracks")
	}
	if a.tid == b.tid {
		t.Error("different tracks share a tid")
	}
}

// TestTraceNilSafety: nil tracer, track and span absorb everything and
// still write a valid empty trace.
func TestTraceNilSafety(t *testing.T) {
	var tr *Tracer
	track := tr.Track("x")
	if track != nil {
		t.Fatal("nil tracer gave a track")
	}
	sp := track.Start("y", "z").Arg("k", 1)
	sp.End()
	track.Counter("c", 1)
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := decodeTrace(t, b.Bytes())
	if evs := out["traceEvents"].([]any); len(evs) != 0 {
		t.Errorf("nil tracer wrote %d events", len(evs))
	}
	if _, ok := out["droppedEventCount"]; ok {
		t.Error("nil tracer dropped")
	}
}

// TestTraceCap: events beyond the cap are dropped and counted, and the file
// stays valid.
func TestTraceCap(t *testing.T) {
	tr := NewTracer()
	tr.cap = 8
	track := tr.Track("t") // uses 2 metadata events
	for i := 0; i < 20; i++ {
		track.Start("s", "c").End()
	}
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := decodeTrace(t, b.Bytes())
	if got := out["droppedEventCount"].(float64); got != 14 { // 20 spans - (8-2) slots
		t.Errorf("droppedEventCount = %v", got)
	}
}

// TestTraceConcurrent: spans from many goroutines under -race.
func TestTraceConcurrent(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			track := tr.Track(strings.Repeat("t", g+1))
			for i := 0; i < 200; i++ {
				track.Start("s", "c").Arg("i", i).End()
				track.Counter("n", float64(i))
			}
		}(g)
	}
	wg.Wait()
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	decodeTrace(t, b.Bytes())
}
