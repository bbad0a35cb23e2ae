package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"soma/internal/dse"
	"soma/internal/engine"
	"soma/internal/obs"
	"soma/internal/sim"
)

// fastSweep is the quickest useful grid in the repo: 4 points of the fastest
// model/profile combination, the same shape internal/dse's tests use.
func fastSweep() dse.Sweep {
	return dse.Sweep{
		Name:   "cluster-test-grid",
		Models: []string{"mobilenetv2"},
		GBufMB: []int64{2, 4},
		Seeds:  []int64{1, 2},
		Search: &dse.Search{Profile: "fast", Beta1: 2, Beta2: 1},
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
	NewWorker(sim.NewCache(0), nil).Mount(mux)
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

	cache := sim.NewCache(0)
	path := filepath.Join(t.TempDir(), "sharded.jsonl")
	opt := fastOptions(w1.URL, w2.URL)
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

// wrappedCache is a sim.EvalCache that is not a *sim.Cache, so sim.Memoize
// can only reach it through the interface.
type wrappedCache struct{ *sim.Cache }

// TestMemoizeThroughInterface: the free sim.Memoize must work for any tier,
// including a typed-nil concrete cache hiding in the interface.
func TestMemoizeThroughInterface(t *testing.T) {
	var typedNil *sim.Cache
	calls := 0
	eval := func() (*sim.Metrics, error) { calls++; return &sim.Metrics{LatencyNS: 1}, nil }
	if m, err := sim.Memoize(typedNil, []byte("k"), nil, eval); err != nil || m.LatencyNS != 1 {
		t.Fatalf("typed-nil memoize = %v, %v", m, err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
	tier := wrappedCache{sim.NewCache(0)}
	sim.Memoize(tier, []byte("k"), nil, eval)
	sim.Memoize(tier, []byte("k"), nil, eval)
	if calls != 2 {
		t.Fatalf("tiered memoize ran eval %d times, want 2 (one cached)", calls-1+1)
	}
	if st := tier.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("tier stats = %+v", st)
	}
}

// TestRequestBodiesBounded: the lease endpoint decodes at most MaxBodyBytes.
// A body the size of the largest measured real lease is decoded and judged
// on its content; one past the bound gets 413.
func TestRequestBodiesBounded(t *testing.T) {
	mux := http.NewServeMux()
	NewWorker(sim.NewCache(0), nil).Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	post := func(body []byte) int {
		t.Helper()
		resp, err := http.Post(srv.URL+PathLease, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// A 4096-seed spec with all its indices, padded to exactly 101,821
	// bytes. Its digest is wrong on purpose, so the worker rejects it with
	// 400 after decoding instead of running 4096 points.
	const realLease = 101821
	sw := fastSweep()
	sw.GBufMB = []int64{2}
	sw.Seeds = make([]int64, 4096)
	req := LeaseRequest{Spec: sw, SpecSHA256: "mismatch", Indices: make([]int, 4096)}
	for i := range sw.Seeds {
		sw.Seeds[i], req.Indices[i] = int64(i+1), i
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > realLease {
		t.Fatalf("unpadded lease is %d bytes, over %d", len(body), realLease)
	}
	req.LeaseID = string(bytes.Repeat([]byte("x"), realLease-len(body)))
	if body, err = json.Marshal(req); err != nil || len(body) != realLease {
		t.Fatalf("padded lease is %d bytes (%v), want %d", len(body), err, realLease)
	}
	if code := post(body); code != http.StatusBadRequest {
		t.Fatalf("real-sized lease got %d, want 400 (digest mismatch)", code)
	}
	huge := append([]byte(`{"lease_id":"`), bytes.Repeat([]byte("x"), MaxBodyBytes)...)
	if code := post(append(huge, `"}`...)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized lease got %d, want 413", code)
	}
}

// TestLeaseGridBound: a worker refuses a lease whose spec expands past
// dse.MaxServedPoints with 400 before expanding it, even when the lease asks
// for a single point and carries the right digest.
func TestLeaseGridBound(t *testing.T) {
	mux := http.NewServeMux()
	NewWorker(sim.NewCache(0), nil).Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	sw := fastSweep()
	sw.GBufMB = []int64{2}
	sw.Seeds = make([]int64, dse.MaxServedPoints+1)
	for i := range sw.Seeds {
		sw.Seeds[i] = int64(i + 1)
	}
	digest, err := sw.SpecSHA256()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(LeaseRequest{LeaseID: "lease-0000", Spec: sw,
		SpecSHA256: digest, Indices: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+PathLease, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := fmt.Sprintf("sweep expands to %d points, limit %d", dse.MaxServedPoints+1, dse.MaxServedPoints)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), want) {
		t.Fatalf("over-bound lease got %d %q, want 400 %q", resp.StatusCode, msg, want)
	}
}

// TestParseWorkers: -workers is a pool size or a cluster address list; a
// value that is neither is rejected instead of starting a 1-worker pool.
func TestParseWorkers(t *testing.T) {
	for _, tc := range []struct {
		in    string
		n     int
		addrs []string
	}{
		{"4", 4, nil},
		{" 2 ", 2, nil},
		{"127.0.0.1:8871", 1, []string{"127.0.0.1:8871"}},
		{"a:1, b:2,", 1, []string{"a:1", "b:2"}},
	} {
		n, addrs, err := ParseWorkers(tc.in)
		if err != nil || n != tc.n || !slices.Equal(addrs, tc.addrs) {
			t.Errorf("ParseWorkers(%q) = %d, %q, %v; want %d, %q", tc.in, n, addrs, err, tc.n, tc.addrs)
		}
	}
	for _, in := range []string{"", ",", " , ", "  "} {
		if _, _, err := ParseWorkers(in); err == nil {
			t.Errorf("ParseWorkers(%q) accepted a value with neither a number nor an address", in)
		}
	}
}
