package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"soma/internal/dse"
	"soma/internal/obs"
	"soma/internal/sim"
)

// faulty wraps a real worker handler and injects failures on the lease path:
// the first `drop` lease requests answer 500, the first `delay` lease
// requests stall until the client gives up. Pings pass through untouched so
// the node looks alive the whole time - exactly the partial-failure mode
// (process up, work failing) that is hardest on a coordinator.
type faulty struct {
	inner http.Handler

	mu    sync.Mutex
	drop  int
	delay int
	dead  bool
	seen  int
}

func (f *faulty) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == PathLease {
		f.mu.Lock()
		f.seen++
		switch {
		case f.dead:
			f.mu.Unlock()
			panic(http.ErrAbortHandler) // connection reset, like a SIGKILL
		case f.drop > 0:
			f.drop--
			f.mu.Unlock()
			http.Error(w, "injected fault", http.StatusInternalServerError)
			return
		case f.delay > 0:
			f.delay--
			f.mu.Unlock()
			// Read the body first: until it is drained net/http does not
			// watch the connection, so the request context would not be
			// canceled when the coordinator drops it.
			_, _ = io.Copy(io.Discard, r.Body)
			select { // stall until the coordinator's lease timeout fires
			case <-r.Context().Done():
			case <-time.After(30 * time.Second):
			}
			return
		}
		f.mu.Unlock()
	} else if r.URL.Path == PathPing {
		f.mu.Lock()
		dead := f.dead
		f.mu.Unlock()
		if dead {
			http.Error(w, "dead", http.StatusServiceUnavailable)
			return
		}
	}
	f.inner.ServeHTTP(w, r)
}

func (f *faulty) kill() {
	f.mu.Lock()
	f.dead = true
	f.mu.Unlock()
}

func (f *faulty) leases() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen
}

func startFaulty(t *testing.T, f *faulty) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	NewWorker(sim.NewCache(0), nil).Mount(mux)
	f.inner = mux
	srv := httptest.NewServer(f)
	t.Cleanup(srv.Close)
	return srv
}

// runSharded runs sw through the coordinator and returns the journal bytes
// for comparison against the serial golden, plus the run's telemetry.
func runSharded(t *testing.T, sw dse.Sweep, opt Options) ([]byte, *dse.Outcome, *obs.Obs) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	out, o, err := shard(t, sw, opt, dse.Options{Journal: path})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, out, o
}

// TestFaultDroppedLeases: a worker that 500s the first two lease attempts.
// The coordinator must retry (counting each reassignment) and the final
// journal must not betray that anything went wrong.
func TestFaultDroppedLeases(t *testing.T) {
	golden := serialJournal(t)
	f := &faulty{drop: 2}
	srv := startFaulty(t, f)

	got, out, o := runSharded(t, fastSweep(), fastOptions(srv.URL))
	if string(got) != string(golden) {
		t.Fatal("journal after dropped leases differs from serial")
	}
	if out.Failed != 0 {
		t.Fatalf("failed = %d", out.Failed)
	}
	if n := metricValue(t, o, "cluster_lease_reassignments_total"); n != 2 {
		t.Fatalf("cluster_lease_reassignments_total = %d, want 2 (one per injected drop)", n)
	}
}

// TestFaultEveryLeaseDropsFallsLocal: a worker whose lease path always fails
// forces every lease through the local fallback once attempts are exhausted.
func TestFaultEveryLeaseDropsFallsLocal(t *testing.T) {
	golden := serialJournal(t)
	f := &faulty{drop: 1 << 20}
	srv := startFaulty(t, f)

	opt := fastOptions(srv.URL)
	opt.MaxAttempts = 1 // first failure sends the lease local
	got, out, o := runSharded(t, fastSweep(), opt)
	if string(got) != string(golden) {
		t.Fatal("journal after local fallback differs from serial")
	}
	if out.Failed != 0 {
		t.Fatalf("failed = %d", out.Failed)
	}
	if n := metricValue(t, o, "cluster_lease_reassignments_total"); n != 4 {
		t.Fatalf("cluster_lease_reassignments_total = %d, want 4 (each lease dropped once)", n)
	}
}

// TestFaultLocalFallbackHonorsWorkers: with every lease dropped by four
// workers at once, all leases land on the local fallback together - and a
// spec with workers: 1 must still solve them one at a time. Each local solve
// records its spans on its own trace track, so overlapping track intervals
// would mean concurrent local solves.
func TestFaultLocalFallbackHonorsWorkers(t *testing.T) {
	golden := serialJournal(t)
	var urls []string
	for i := 0; i < 4; i++ {
		urls = append(urls, startFaulty(t, &faulty{drop: 1 << 20}).URL)
	}
	opt := fastOptions(urls...)
	opt.MaxAttempts = 1
	sw := fastSweep()
	sw.Workers = 1
	got, _, o := runSharded(t, sw, opt)
	if string(got) != string(golden) {
		t.Fatal("journal after local fallback differs from serial")
	}

	var buf bytes.Buffer
	if err := o.Trace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	points := map[int]bool{}
	for _, ev := range trace.TraceEvents {
		if name, _ := ev.Args["name"].(string); ev.Ph == "M" && strings.HasPrefix(name, "point-") {
			points[ev.TID] = true
		}
	}
	type span struct{ from, to int64 }
	solves := map[int]*span{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" || !points[ev.TID] {
			continue
		}
		s, ok := solves[ev.TID]
		if !ok {
			s = &span{ev.TS, ev.TS + ev.Dur}
			solves[ev.TID] = s
		}
		s.from, s.to = min(s.from, ev.TS), max(s.to, ev.TS+ev.Dur)
	}
	if len(solves) != 4 {
		t.Fatalf("traced %d local solves, want 4 (every lease falls back)", len(solves))
	}
	var spans []*span
	for _, s := range solves {
		spans = append(spans, s)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].from < spans[j].from })
	for i := 1; i < len(spans); i++ {
		// 1us of slack: span ends are rounded up to a whole microsecond.
		if spans[i].from < spans[i-1].to-1 {
			t.Fatalf("local solves overlap under workers: 1: [%d,%d] and [%d,%d]us",
				spans[i-1].from, spans[i-1].to, spans[i].from, spans[i].to)
		}
	}
}

// TestFaultDelayedLease: a lease that stalls past LeaseTimeout must be timed
// out, reassigned, and the stalled attempt's eventual non-answer ignored.
func TestFaultDelayedLease(t *testing.T) {
	golden := serialJournal(t)
	f := &faulty{delay: 1}
	srv := startFaulty(t, f)

	opt := fastOptions(srv.URL)
	opt.LeaseTimeout = 400 * time.Millisecond
	got, out, o := runSharded(t, fastSweep(), opt)
	if string(got) != string(golden) {
		t.Fatal("journal after delayed lease differs from serial")
	}
	if out.Failed != 0 {
		t.Fatalf("failed = %d", out.Failed)
	}
	if n := metricValue(t, o, "cluster_lease_reassignments_total"); n < 1 {
		t.Fatal("timed-out lease was not counted as a reassignment")
	}
}

// TestFaultKillWorkerMidSweep is the acceptance scenario: two workers, one
// dies (connection resets, failed pings) after serving its first lease. The
// survivor absorbs the rest and the journal stays byte-identical.
func TestFaultKillWorkerMidSweep(t *testing.T) {
	golden := serialJournal(t)

	var f *faulty
	f = &faulty{}
	victim := startFaulty(t, f)
	survivor := startWorker(t)

	// Kill the victim the moment it finishes its first lease: wrap via the
	// seen counter - the second lease request hits the dead branch.
	go func() {
		for f.leases() < 1 {
			time.Sleep(5 * time.Millisecond)
		}
		f.kill()
	}()

	got, out, _ := runSharded(t, fastSweep(), fastOptions(victim.URL, survivor.URL))
	if string(got) != string(golden) {
		t.Fatal("journal after mid-sweep worker kill differs from serial")
	}
	if out.Failed != 0 || out.Points != 4 {
		t.Fatalf("outcome = %+v", out)
	}
}
