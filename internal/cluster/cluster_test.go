package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"soma/internal/dse"
	"soma/internal/engine"
	"soma/internal/obs"
	"soma/internal/sim"
	"soma/internal/soma"
)

// fastSweep is the quickest useful grid in the repo: 4 points of the fastest
// model/profile combination, the same shape internal/dse's tests use.
func fastSweep() dse.Sweep {
	par := soma.FastParams()
	par.Beta1, par.Beta2 = 2, 1
	return dse.Sweep{
		Name:   "cluster-test-grid",
		Models: []string{"mobilenetv2"},
		GBufMB: []int64{2, 4},
		Seeds:  []int64{1, 2},
		Params: &par,
	}
}

// serialJournal runs the sweep through plain dse.Run and returns the journal
// bytes - the golden every sharded variant must reproduce exactly. The run is
// deterministic, so one execution serves every test.
var serialOnce struct {
	sync.Once
	data []byte
	err  error
}

func serialJournal(t *testing.T) []byte {
	t.Helper()
	serialOnce.Do(func() {
		dir, err := os.MkdirTemp("", "cluster-serial")
		if err != nil {
			serialOnce.err = err
			return
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "serial.jsonl")
		if _, err := dse.Run(context.Background(), fastSweep(), dse.Options{Journal: path}); err != nil {
			serialOnce.err = err
			return
		}
		serialOnce.data, serialOnce.err = os.ReadFile(path)
	})
	if serialOnce.err != nil {
		t.Fatal(serialOnce.err)
	}
	return serialOnce.data
}

// startWorker launches an in-process worker node.
func startWorker(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	NewWorker(nil).Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// fastOptions shrinks the failure-detection clocks so fault tests finish in
// test time, not operations time.
func fastOptions(workers ...string) Options {
	return Options{
		Workers:      workers,
		Heartbeat:    100 * time.Millisecond,
		PingTimeout:  250 * time.Millisecond,
		LeaseTimeout: 30 * time.Second,
	}
}

// shard runs sw through dse.Run on a cluster executor built from opt,
// recording telemetry on a fresh Obs. Whatever the faults, every committed
// point must stream exactly one point-done or point-error event.
func shard(t *testing.T, sw dse.Sweep, opt Options, dopt dse.Options) (*dse.Outcome, *obs.Obs, error) {
	t.Helper()
	var mu sync.Mutex
	finished := map[string]int{}
	dopt.Hooks = &engine.Hooks{Event: func(e engine.Event) {
		if e.Kind == "point-done" || e.Kind == "point-error" {
			mu.Lock()
			finished[fmt.Sprintf("%s/%d", e.Stage, e.Iter)]++
			mu.Unlock()
		}
	}}
	dopt.Executor, dopt.Obs = New(opt), obs.New()
	out, err := dse.Run(context.Background(), sw, dopt)
	if err != nil {
		return out, dopt.Obs, err
	}
	commits := out.Points - out.Resumed
	if out.Adaptive != nil {
		commits += out.Adaptive.Promotions
	}
	for key, n := range finished {
		if n != 1 {
			t.Errorf("point %s finished %d times, want once", key, n)
		}
	}
	if len(finished) != commits {
		t.Errorf("point-done/point-error for %d points, want %d commits", len(finished), commits)
	}
	return out, dopt.Obs, nil
}

// metricValue sums every series of one metric family.
func metricValue(t *testing.T, o *obs.Obs, name string) int64 {
	t.Helper()
	var total int64
	for _, m := range o.Registry().Snapshot() {
		if m.Name == name {
			for _, s := range m.Series {
				total += int64(s.Value)
			}
		}
	}
	return total
}

func TestShardedJournalByteIdentical(t *testing.T) {
	golden := serialJournal(t)

	w1, w2 := startWorker(t), startWorker(t)

	// Coordinator-hosted L2 backed by the coordinator cache.
	cache := sim.NewCache(0)
	cmux := http.NewServeMux()
	NewCacheServer(cache).Mount(cmux)
	csrv := httptest.NewServer(cmux)
	defer csrv.Close()

	path := filepath.Join(t.TempDir(), "sharded.jsonl")
	opt := fastOptions(w1.URL, w2.URL)
	opt.CacheURL = csrv.URL
	out, o, err := shard(t, fastSweep(), opt, dse.Options{Cache: cache, Journal: path})
	if err != nil {
		t.Fatal(err)
	}
	if out.Points != 4 || out.Failed != 0 || out.BestIndex < 0 {
		t.Fatalf("outcome = %+v", out)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(golden) {
		t.Fatalf("sharded journal differs from serial:\nserial:\n%s\nsharded:\n%s", golden, got)
	}
	// The live-state gauges read only running sweeps: once the sweep has
	// returned, no lease is in flight and no worker counts as alive.
	for _, name := range []string{"cluster_leases_inflight", "cluster_workers_alive"} {
		if v := metricValue(t, o, name); v != 0 {
			t.Errorf("%s = %d after the sweep returned, want 0", name, v)
		}
	}
}

func TestShardedResumeFromCommittedPrefix(t *testing.T) {
	golden := serialJournal(t)

	// Simulate a killed sweep: keep the header plus two committed rows.
	lines := splitLines(golden)
	if len(lines) != 5 {
		t.Fatalf("golden journal has %d lines, want 5", len(lines))
	}
	path := filepath.Join(t.TempDir(), "resume.jsonl")
	prefix := append(append([]byte{}, lines[0]...), '\n')
	for _, l := range lines[1:3] {
		prefix = append(append(prefix, l...), '\n')
	}
	if err := os.WriteFile(path, prefix, 0o644); err != nil {
		t.Fatal(err)
	}

	w := startWorker(t)
	out, _, err := shard(t, fastSweep(), fastOptions(w.URL), dse.Options{Journal: path})
	if err != nil {
		t.Fatal(err)
	}
	if out.Resumed != 2 {
		t.Fatalf("resumed = %d, want 2", out.Resumed)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(golden) {
		t.Fatalf("resumed sharded journal differs from serial golden")
	}
}

func splitLines(data []byte) [][]byte {
	var lines [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			lines = append(lines, data[start:i])
			start = i + 1
		}
	}
	if start < len(data) {
		lines = append(lines, data[start:])
	}
	return lines
}

// TestDegradesToLocalWithoutWorkers: zero reachable workers must produce the
// identical journal through plain local execution, not an error.
func TestDegradesToLocalWithoutWorkers(t *testing.T) {
	golden := serialJournal(t)
	path := filepath.Join(t.TempDir(), "degraded.jsonl")
	opt := fastOptions("127.0.0.1:1", "127.0.0.1:2") // nothing listens there
	out, o, err := shard(t, fastSweep(), opt, dse.Options{Journal: path})
	if err != nil {
		t.Fatal(err)
	}
	if out.Points != 4 || out.Failed != 0 {
		t.Fatalf("outcome = %+v", out)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(golden) {
		t.Fatal("degraded journal differs from serial")
	}
	if n := metricValue(t, o, "cluster_degraded_runs_total"); n != 1 {
		t.Fatalf("cluster_degraded_runs_total = %d, want 1", n)
	}
}

func TestWorkerRejectsDigestMismatch(t *testing.T) {
	w := startWorker(t)
	sw := fastSweep()
	req := LeaseRequest{LeaseID: "lease-0000", Spec: sw,
		SpecSHA256: "not-the-digest", Indices: []int{0}}
	var resp LeaseResponse
	err := postJSON(context.Background(), http.DefaultClient, w.URL+PathLease, req, &resp)
	if err == nil {
		t.Fatal("worker accepted a lease with a mismatched spec digest")
	}
}

func TestNormalizeWorkerURL(t *testing.T) {
	cases := map[string]string{
		"host:8080":         "http://host:8080",
		"http://host:8080":  "http://host:8080",
		"http://host:8080/": "http://host:8080",
		"https://host":      "https://host",
		"":                  "",
		"127.0.0.1:8871":    "http://127.0.0.1:8871",
	}
	for in, want := range cases {
		if got := NormalizeWorkerURL(in); got != want {
			t.Errorf("NormalizeWorkerURL(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestTieredCache: L1 answers repeats, successes propagate to the remote L2
// (write-behind), a second node's tier hits the shared L2, and error entries
// stay local.
func TestTieredCache(t *testing.T) {
	backing := sim.NewCache(0)
	mux := http.NewServeMux()
	srv := NewCacheServer(backing)
	srv.Mount(mux)
	hsrv := httptest.NewServer(mux)
	defer hsrv.Close()

	tier1 := &Tiered{L1: sim.NewCache(0), L2: NewRemote(hsrv.URL, nil)}
	defer tier1.L2.Close()

	m := &sim.Metrics{LatencyNS: 42}
	tier1.Put("k1", m, nil)
	if got, err, ok := tier1.Get("k1"); !ok || err != nil || got.LatencyNS != 42 {
		t.Fatalf("tier1 L1 get = %v, %v, %v", got, err, ok)
	}

	// Write-behind is async: wait for the put to land on the server.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, ok := backing.Get("k1"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("write-behind put never reached the cache server")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A fresh node (empty L1) hits the shared L2 and promotes into L1.
	tier2 := &Tiered{L1: sim.NewCache(0), L2: NewRemote(hsrv.URL, nil)}
	defer tier2.L2.Close()
	if got, err, ok := tier2.Get("k1"); !ok || err != nil || got.LatencyNS != 42 {
		t.Fatalf("tier2 remote get = %v, %v, %v", got, err, ok)
	}
	if got, _, ok := tier2.L1.Get("k1"); !ok || got.LatencyNS != 42 {
		t.Fatal("remote hit was not promoted into L1")
	}

	// Error entries stay worker-local.
	tier1.Put("bad", nil, context.DeadlineExceeded)
	time.Sleep(50 * time.Millisecond)
	if _, _, ok := backing.Get("bad"); ok {
		t.Fatal("error entry crossed the wire")
	}
	if _, err, ok := tier1.L1.Get("bad"); !ok || err == nil {
		t.Fatal("error entry missing from L1")
	}
}

// TestRemoteBreaker: a dead cache server must not block evaluation - gets
// degrade to misses after the breaker opens.
func TestRemoteBreaker(t *testing.T) {
	rem := NewRemote("http://127.0.0.1:1", nil)
	defer rem.Close()
	if _, _, ok := rem.Get("k"); ok {
		t.Fatal("dead remote reported a hit")
	}
	if !rem.tripped() {
		t.Fatal("transport error did not open the breaker")
	}
	// While open, gets return instantly as misses.
	start := time.Now()
	if _, _, ok := rem.Get("k"); ok {
		t.Fatal("tripped remote reported a hit")
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("tripped get took %v, want instant", d)
	}
}

// TestMemoizeThroughInterface: the free sim.Memoize must work for any tier,
// including a typed-nil concrete cache hiding in the interface.
func TestMemoizeThroughInterface(t *testing.T) {
	var typedNil *sim.Cache
	calls := 0
	eval := func() (*sim.Metrics, error) { calls++; return &sim.Metrics{LatencyNS: 1}, nil }
	if m, err := sim.Memoize(typedNil, "k", eval); err != nil || m.LatencyNS != 1 {
		t.Fatalf("typed-nil memoize = %v, %v", m, err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
	tier := &Tiered{L1: sim.NewCache(0)}
	sim.Memoize(tier, "k", eval)
	sim.Memoize(tier, "k", eval)
	if calls != 2 {
		t.Fatalf("tiered memoize ran eval %d times, want 2 (one cached)", calls-1+1)
	}
	if st := tier.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("tier stats = %+v", st)
	}
}

// TestRequestBodiesBounded: every cluster endpoint decodes at most
// MaxBodyBytes. A cache put the size of the largest measured real one is
// served; one past the bound gets a 4xx, as does an oversized lease.
func TestRequestBodiesBounded(t *testing.T) {
	mux := http.NewServeMux()
	NewCacheServer(sim.NewCache(0)).Mount(mux)
	NewWorker(nil).Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	post := func(path string, body []byte) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	put := func(keyBytes int) []byte {
		body, err := json.Marshal(CachePutRequest{Key: bytes.Repeat([]byte{0xfe}, keyBytes),
			Metrics: &sim.Metrics{LatencyNS: 1}})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	if code := post(PathCachePut, put(209030)); code != http.StatusOK {
		t.Fatalf("legitimate cache put got %d", code)
	}
	if code := post(PathCachePut, put(MaxBodyBytes)); code < 400 || code >= 500 {
		t.Fatalf("oversized cache put got %d, want 4xx", code)
	}
	huge := append([]byte(`{"lease_id":"`), bytes.Repeat([]byte("x"), MaxBodyBytes)...)
	if code := post(PathLease, append(huge, `"}`...)); code < 400 || code >= 500 {
		t.Fatalf("oversized lease got %d, want 4xx", code)
	}
}
