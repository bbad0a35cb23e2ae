package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestPrometheusExposition pins the exact text format: HELP/TYPE lines,
// sorted families and series, histogram cumulative buckets with +Inf, _sum
// and _count.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta_total", "last family by name").Add(3)
	r.Counter("alpha_total", "a labeled counter", "stage", "stage2").Add(5)
	r.Counter("alpha_total", "a labeled counter", "stage", "stage1").Add(2)
	r.Gauge("beta", "a gauge").Set(1.5)
	r.GaugeFunc("gamma", "a pulled gauge", func() float64 { return 42 })
	h := r.Histogram("delta_seconds", "a histogram")
	h.Observe(0.5e-6) // first bucket (le 1e-6)
	h.Observe(2e-3)   // le 3.2e-3
	h.Observe(5000)   // +Inf

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP alpha_total a labeled counter
# TYPE alpha_total counter
alpha_total{stage="stage1"} 2
alpha_total{stage="stage2"} 5
# HELP beta a gauge
# TYPE beta gauge
beta 1.5
# HELP delta_seconds a histogram
# TYPE delta_seconds histogram
delta_seconds_bucket{le="1e-06"} 1
delta_seconds_bucket{le="3.2e-06"} 1
delta_seconds_bucket{le="1e-05"} 1
delta_seconds_bucket{le="3.2e-05"} 1
delta_seconds_bucket{le="0.0001"} 1
delta_seconds_bucket{le="0.00032"} 1
delta_seconds_bucket{le="0.001"} 1
delta_seconds_bucket{le="0.0032"} 2
delta_seconds_bucket{le="0.01"} 2
delta_seconds_bucket{le="0.032"} 2
delta_seconds_bucket{le="0.1"} 2
delta_seconds_bucket{le="0.32"} 2
delta_seconds_bucket{le="1"} 2
delta_seconds_bucket{le="3.2"} 2
delta_seconds_bucket{le="10"} 2
delta_seconds_bucket{le="32"} 2
delta_seconds_bucket{le="100"} 2
delta_seconds_bucket{le="320"} 2
delta_seconds_bucket{le="1000"} 2
delta_seconds_bucket{le="+Inf"} 3
delta_seconds_sum 5000.0020005
delta_seconds_count 3
# HELP gamma a pulled gauge
# TYPE gamma gauge
gamma 42
# HELP zeta_total last family by name
# TYPE zeta_total counter
zeta_total 3
`
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// The +Inf catch-all must close every histogram series at the total
	// observation count - asserted explicitly, not just via the golden.
	if !strings.Contains(got, `delta_seconds_bucket{le="+Inf"} 3`) {
		t.Error("exposition missing the +Inf bucket at the full count")
	}
}

// TestHistogramBucketBoundaries checks the le semantics at the exact bucket
// bounds: an observation equal to a bound lands in that bound's bucket. Each
// case compares registry snapshots taken around one Observe, so the
// assertion is "exactly this one bucket moved".
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x_seconds", "")
	cases := []struct {
		v      float64
		bucket int // index into counts
	}{
		{0, 0},                          // below the first bound
		{1e-6, 0},                       // exactly the first bound
		{1e-6 + 1e-12, 1},               // just above it
		{3.2e-3, 7},                     // exactly a mid bound
		{1, 12},                         // exactly 1
		{1000, len(DefaultBuckets) - 1}, // exactly the last bound
		{1001, len(DefaultBuckets)},     // +Inf bucket
		{math.Inf(1), len(DefaultBuckets)},
	}
	for _, c := range cases {
		before := histogramOf(t, r, "x_seconds")
		h.Observe(c.v)
		after := histogramOf(t, r, "x_seconds")
		for i := range after.Counts {
			var want int64
			if i == c.bucket {
				want = 1
			}
			if got := after.Counts[i] - before.Counts[i]; got != want {
				t.Errorf("Observe(%g): bucket %d count delta = %d, want %d", c.v, i, got, want)
			}
		}
		if d := after.Count - before.Count; d != 1 {
			t.Errorf("Observe(%g): count delta = %d, want 1", c.v, d)
		}
	}
	if got := histogramOf(t, r, "x_seconds").Count; got != int64(len(cases)) {
		t.Errorf("Count = %d, want %d", got, len(cases))
	}
}

// histogramOf returns the snapshot of the one series of histogram family
// name.
func histogramOf(t *testing.T, r *Registry, name string) *HistogramSnapshot {
	t.Helper()
	for _, f := range r.Snapshot() {
		if f.Name == name && len(f.Series) == 1 && f.Series[0].Histogram != nil {
			return f.Series[0].Histogram
		}
	}
	t.Fatalf("no single-series histogram %q in the snapshot", name)
	return nil
}

// TestRegistryConcurrent hammers every instrument type from many goroutines;
// run under -race this is the registry's thread-safety proof. Counts are
// asserted exactly.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const G, N = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < N; i++ {
				// Get-or-create on every iteration: the lookup path is
				// part of what's being raced.
				r.Counter("c_total", "h", "stage", "s").Inc()
				r.Gauge("g", "h").Set(float64(i))
				r.Histogram("h_seconds", "h").Observe(float64(i) * 1e-4)
				if i%100 == 0 {
					var b strings.Builder
					_ = r.WritePrometheus(&b)
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("c_total", "h", "stage", "s").Value(); got != G*N {
		t.Errorf("counter = %d, want %d", got, G*N)
	}
	if got := histogramOf(t, r, "h_seconds").Count; got != G*N {
		t.Errorf("histogram count = %d, want %d", got, G*N)
	}
}

// TestNilSafety: a nil registry and nil instruments must absorb every call.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("a_total", "")
	c.Add(1)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	g := r.Gauge("b", "")
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	r.GaugeFunc("c", "", func() float64 { return 1 })
	h := r.Histogram("d_seconds", "")
	h.Observe(1)
	if h != nil {
		t.Error("nil registry handed out a histogram")
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Errorf("nil registry wrote %q, err %v", b.String(), err)
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot non-nil")
	}

	var o *Obs
	if o.Registry() != nil || o.Trace() != nil {
		t.Error("nil Obs handed out non-nil parts")
	}
}

// TestLabelCanonicalization: label order must not split series.
func TestLabelCanonicalization(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m_total", "", "x", "1", "y", "2")
	b := r.Counter("m_total", "", "y", "2", "x", "1")
	if a != b {
		t.Error("label order split the series")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Error("series not shared")
	}
}

// TestTypeMismatchPanics: one name, two types is a programming error.
func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "")
	defer func() {
		if recover() == nil {
			t.Error("no panic on type mismatch")
		}
	}()
	r.Gauge("m_total", "")
}

// TestCounterRejectsNegative: counters are monotone.
func TestCounterRejectsNegative(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("m_total", "")
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
}

// TestGaugeFuncReplace: re-registering swaps the pull function.
func TestGaugeFuncReplace(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("g", "", func() float64 { return 1 })
	r.GaugeFunc("g", "", func() float64 { return 2 })
	snap := r.Snapshot()
	if len(snap) != 1 || len(snap[0].Series) != 1 || snap[0].Series[0].Value != 2 {
		t.Errorf("snapshot = %+v, want single gauge 2", snap)
	}
}

// TestSnapshot covers the JSON-able view used by /v1/stats.
func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "help a", "k", "v").Add(7)
	r.Histogram("b_seconds", "").Observe(0.5)
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("families = %d, want 2", len(snap))
	}
	if snap[0].Name != "a_total" || snap[0].Type != TypeCounter ||
		snap[0].Series[0].Labels != `{k="v"}` || snap[0].Series[0].Value != 7 {
		t.Errorf("counter snapshot = %+v", snap[0])
	}
	hs := snap[1].Series[0].Histogram
	if snap[1].Name != "b_seconds" || hs == nil || hs.Count != 1 || hs.Sum != 0.5 {
		t.Errorf("histogram snapshot = %+v", snap[1])
	}
	if len(hs.Counts) != len(DefaultBuckets)+1 {
		t.Errorf("bucket counts = %d, want %d", len(hs.Counts), len(DefaultBuckets)+1)
	}
}
