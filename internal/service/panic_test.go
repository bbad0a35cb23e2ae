package service

import (
	"bytes"
	"context"
	"log"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"soma/internal/engine"
	"soma/internal/report"
)

// panicBackend is a solver that panics on every solve, registered under a
// name no production code uses.
type panicBackend struct{}

const panicBackendName = "test-panic"

func (panicBackend) Name() string { return panicBackendName }

func (panicBackend) Solve(context.Context, engine.Request, *engine.Hooks) (*report.Result, error) {
	panic("test-panic backend: boom")
}

func init() { engine.Register(panicBackend{}) }

// syncBuffer is a log sink safe for the worker goroutines writing to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestPanickingJobsFail: a panic in a job's solve, or in a sweep point's,
// fails that job with the panic value as its error and logs the stack, and
// the single worker goes on to run the next job.
func TestPanickingJobsFail(t *testing.T) {
	var logs syncBuffer
	prev := log.Writer()
	log.SetOutput(&logs)
	t.Cleanup(func() { log.SetOutput(prev) })
	_, ts := newTestServer(t, Config{Workers: 1})

	job := smallJob(1)
	job["framework"] = panicBackendName
	sweep := smallSweep()
	sweep["backends"] = []string{panicBackendName}
	for _, c := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/jobs", job},
		{"/v1/sweeps", sweep},
	} {
		var v View
		if code := doJSON(t, http.MethodPost, ts.URL+c.path+"?wait=1", c.body, &v); code != http.StatusOK {
			t.Fatalf("POST %s: status %d (%+v)", c.path, code, v)
		}
		if v.State != StateFailed || v.Error != "panic: test-panic backend: boom" {
			t.Fatalf("POST %s: state %s, error %q; want failed with the panic value", c.path, v.State, v.Error)
		}
		if !strings.Contains(logs.String(), "somad: job "+v.ID+": panic: test-panic backend: boom") {
			t.Fatalf("POST %s: job %s's panic not logged:\n%s", c.path, v.ID, logs.String())
		}
	}
	if out := logs.String(); strings.Count(out, "service.panicBackend.Solve") != 2 {
		t.Fatalf("want both panics' stacks in the log:\n%s", out)
	}

	v := submit(t, ts, smallJob(1))
	if v = pollUntil(t, ts, v.ID, 30*time.Second, terminal); v.State != StateDone {
		t.Fatalf("job after the panics: state %s (%s)", v.State, v.Error)
	}
}
