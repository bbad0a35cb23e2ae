package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric types, in Prometheus exposition vocabulary.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; all methods are no-ops on a nil receiver, so instrumented
// code never branches on whether telemetry is enabled.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta (negative deltas are ignored: a
// counter only goes up).
func (c *Counter) Add(delta int64) {
	if c == nil || delta <= 0 {
		return
	}
	c.v.Add(delta)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 instrument for values that go up and down.
// All methods are no-ops on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefaultBuckets are the registry's fixed log-scale histogram bounds: half
// decades from 1µs to 1000s. One bucket set serves every duration histogram
// in the repo - per-move proposals land near the bottom, whole paper-profile
// sweeps near the top - so dashboards can overlay any two families.
var DefaultBuckets = []float64{
	1e-6, 3.2e-6, 1e-5, 3.2e-5, 1e-4, 3.2e-4,
	1e-3, 3.2e-3, 1e-2, 3.2e-2, 1e-1, 3.2e-1,
	1, 3.2, 10, 32, 100, 320, 1000,
}

// Histogram counts observations into fixed log-scale buckets
// (DefaultBuckets) and tracks their sum, Prometheus-style (cumulative
// exposition, +Inf catch-all). Observe is three atomic operations; all
// methods are no-ops on a nil receiver.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    Gauge
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is the JSON-able state of one histogram series.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts the per-bucket (not
	// cumulative) tallies, with one extra +Inf bucket at the end.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

func (h *Histogram) snapshot() *HistogramSnapshot {
	s := &HistogramSnapshot{Bounds: h.bounds, Counts: make([]int64, len(h.counts)),
		Count: h.count.Load(), Sum: h.sum.Value()}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// series is one labeled instrument inside a family.
type series struct {
	labels string // rendered {k="v",...} signature, "" for unlabeled
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

// family is every series sharing one metric name.
type family struct {
	name, help, typ string
	series          []*series
	byLabel         map[string]*series
}

// Registry is a concurrency-safe metrics registry. Instruments are
// registered get-or-create by (name, labels), so call sites fetch them
// freely without coordinating; re-registering an existing series returns the
// same instrument. A nil *Registry hands out nil instruments, whose methods
// are all no-ops - the off switch for the whole layer.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelSignature renders k/v pairs as a canonical `{k="v",...}` string.
// Pairs are sorted by key so call sites need not agree on argument order.
func labelSignature(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be key/value pairs")
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(a, b int) bool { return kvs[a].k < kvs[b].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns the series for (name, labels), creating family and series
// as needed. Registering one name under two different types panics: metric
// names are package-level wiring, not runtime data.
func (r *Registry) lookup(name, help, typ string, labels []string) *series {
	sig := labelSignature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byLabel: make(map[string]*series)}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	}
	s, ok := f.byLabel[sig]
	if !ok {
		s = &series{labels: sig}
		switch typ {
		case TypeCounter:
			s.c = &Counter{}
		case TypeGauge:
			s.g = &Gauge{}
		case TypeHistogram:
			s.h = newHistogram(DefaultBuckets)
		}
		f.byLabel[sig] = s
		f.series = append(f.series, s)
	}
	return s
}

// Counter returns the named counter, creating it on first use. labels are
// key/value pairs ("stage", "stage2"). Nil-safe: a nil registry returns a
// nil counter, whose methods are no-ops.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, TypeCounter, labels).c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, TypeGauge, labels).g
}

// GaugeFunc registers a gauge whose value is pulled from fn at exposition
// time - the natural shape for exporting counters a subsystem already keeps
// (sim.Cache hit/miss atomics, runtime stats). Re-registering a series
// replaces its function, so long-lived daemons can re-point at fresh
// objects. fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	s := r.lookup(name, help, TypeGauge, labels)
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// Histogram returns the named histogram (fixed DefaultBuckets log-scale
// bounds), creating it on first use.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, TypeHistogram, labels).h
}

// fnum renders a float the way Prometheus clients do: shortest round-trip
// representation, with +Inf spelled "+Inf".
func fnum(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus emits every family in the Prometheus text exposition
// format (families sorted by name, series by label signature). Safe on a
// nil registry (writes nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	// Snapshot each family's series list under the lock; the instruments
	// themselves are atomic, so values are read lock-free below.
	type famView struct {
		f      *family
		series []*series
	}
	views := make([]famView, len(fams))
	for i, f := range fams {
		ss := make([]*series, len(f.series))
		copy(ss, f.series)
		sort.Slice(ss, func(a, b int) bool { return ss[a].labels < ss[b].labels })
		views[i] = famView{f: f, series: ss}
	}
	r.mu.Unlock()

	for _, v := range views {
		f := v.f
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range v.series {
			var err error
			switch f.typ {
			case TypeCounter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.c.Value())
			case TypeGauge:
				val := s.g.Value()
				if s.fn != nil {
					val = s.fn()
				}
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, fnum(val))
			case TypeHistogram:
				err = writePromHistogram(w, f.name, s)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writePromHistogram renders one histogram series: cumulative _bucket lines
// (le-labeled, +Inf last), then _sum and _count.
func writePromHistogram(w io.Writer, name string, s *series) error {
	snap := s.h.snapshot()
	inner := strings.TrimSuffix(strings.TrimPrefix(s.labels, "{"), "}")
	var cum int64
	for i, c := range snap.Counts {
		cum += c
		le := "+Inf"
		if i < len(snap.Bounds) {
			le = fnum(snap.Bounds[i])
		}
		lbl := fmt.Sprintf(`{le="%s"}`, le)
		if inner != "" {
			lbl = fmt.Sprintf(`{%s,le="%s"}`, inner, le)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, lbl, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, fnum(snap.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, snap.Count)
	return err
}

// SeriesSnapshot is one labeled series in a registry snapshot.
type SeriesSnapshot struct {
	// Labels is the rendered `{k="v",...}` signature ("" when unlabeled).
	Labels string `json:"labels,omitempty"`
	// Value carries counter and gauge readings.
	Value float64 `json:"value"`
	// Histogram carries bucketed series (Value is then the sum).
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// MetricSnapshot is one family in a registry snapshot.
type MetricSnapshot struct {
	Name   string           `json:"name"`
	Type   string           `json:"type"`
	Help   string           `json:"help,omitempty"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot returns a point-in-time JSON-able view of every family, sorted
// by name (series by label signature). Safe on a nil registry (returns nil).
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]MetricSnapshot, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		m := MetricSnapshot{Name: f.name, Type: f.typ, Help: f.help}
		ss := make([]*series, len(f.series))
		copy(ss, f.series)
		sort.Slice(ss, func(a, b int) bool { return ss[a].labels < ss[b].labels })
		for _, s := range ss {
			v := SeriesSnapshot{Labels: s.labels}
			switch f.typ {
			case TypeCounter:
				v.Value = float64(s.c.Value())
			case TypeGauge:
				if s.fn != nil {
					v.Value = s.fn()
				} else {
					v.Value = s.g.Value()
				}
			case TypeHistogram:
				v.Histogram = s.h.snapshot()
				v.Value = v.Histogram.Sum
			}
			m.Series = append(m.Series, v)
		}
		out = append(out, m)
	}
	r.mu.Unlock()
	return out
}
