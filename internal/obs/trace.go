package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// traceEvent is one entry in the Chrome trace-event JSON array. Field names
// follow the trace-event format spec so Perfetto and chrome://tracing load
// the output directly.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`            // microseconds since tracer start
	Dur  int64          `json:"dur,omitempty"` // microseconds, ph:"X" only
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// DefaultTraceCap bounds how many events a tracer retains; beyond it events
// are counted as dropped rather than grown without limit (a long sweep can
// emit a span per point per stage).
const DefaultTraceCap = 1 << 16

// Tracer records spans and counter samples and writes them out as Chrome
// trace-event JSON. Spans are grouped onto named Tracks, which render as
// separate rows ("threads") in Perfetto. A nil *Tracer hands out nil
// Tracks/Spans whose methods are all no-ops.
type Tracer struct {
	mu      sync.Mutex
	start   time.Time
	events  []traceEvent
	tracks  map[string]*Track
	nextTID int
	cap     int
	dropped int64
}

// NewTracer creates a tracer whose timestamps are relative to now, keeping
// at most DefaultTraceCap events.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now(), tracks: make(map[string]*Track), nextTID: 1, cap: DefaultTraceCap}
}

// now returns microseconds since the tracer started.
func (t *Tracer) now() int64 { return time.Since(t.start).Microseconds() }

// append records ev unless the cap is hit (then it counts a drop).
// Caller must hold t.mu.
func (t *Tracer) appendLocked(ev traceEvent) {
	if len(t.events) >= t.cap {
		t.dropped++
		return
	}
	t.events = append(t.events, ev)
}

// Track returns the named track (a Perfetto row), creating it on first use.
// Nil-safe: a nil tracer returns a nil track.
func (t *Tracer) Track(name string) *Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if tr, ok := t.tracks[name]; ok {
		return tr
	}
	tr := &Track{t: t, tid: t.nextTID}
	t.nextTID++
	t.tracks[name] = tr
	// Metadata event naming the "thread" so viewers show the track name.
	t.appendLocked(traceEvent{Name: "thread_name", Ph: "M", PID: 1, TID: tr.tid,
		Args: map[string]any{"name": name}})
	// sort_index keeps tracks in creation order in Perfetto.
	t.appendLocked(traceEvent{Name: "thread_sort_index", Ph: "M", PID: 1, TID: tr.tid,
		Args: map[string]any{"sort_index": tr.tid}})
	return tr
}

// Track is one horizontal row of spans. Methods are no-ops on a nil
// receiver.
type Track struct {
	t   *Tracer
	tid int
}

// Start opens a span on the track; close it with End. cat is the trace
// category ("engine", "soma", "dse", ...), usable as a filter in viewers.
func (tr *Track) Start(name, cat string) *Span {
	if tr == nil {
		return nil
	}
	return &Span{tr: tr, name: name, cat: cat, ts: tr.t.now()}
}

// Counter emits one sample of a named counter series on this track; ph:"C"
// events render as a step chart in Perfetto (e.g. the best-cost timeline).
func (tr *Track) Counter(name string, value float64) {
	if tr == nil {
		return
	}
	tr.t.mu.Lock()
	tr.t.appendLocked(traceEvent{Name: name, Ph: "C", TS: tr.t.now(), PID: 1, TID: tr.tid,
		Args: map[string]any{"value": value}})
	tr.t.mu.Unlock()
}

// Span is one open interval on a track. Methods are no-ops on a nil
// receiver, so callers unconditionally defer sp.End().
type Span struct {
	tr   *Track
	name string
	cat  string
	ts   int64
	args map[string]any
}

// Arg attaches a key/value shown in the span's detail pane. Returns the span
// for chaining.
func (s *Span) Arg(key string, value any) *Span {
	if s == nil {
		return nil
	}
	if s.args == nil {
		s.args = make(map[string]any)
	}
	s.args[key] = value
	return s
}

// End closes the span, recording a complete (ph:"X") event.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tr.t
	t.mu.Lock()
	end := t.now()
	dur := end - s.ts
	if dur < 1 {
		dur = 1 // zero-duration spans are invisible in viewers
	}
	t.appendLocked(traceEvent{Name: s.name, Cat: s.cat, Ph: "X", TS: s.ts, Dur: dur,
		PID: 1, TID: s.tr.tid, Args: s.args})
	t.mu.Unlock()
}

// WriteJSON emits the Chrome trace-event JSON object
// ({"traceEvents":[...],"displayTimeUnit":"ms"}). Events are sorted by
// timestamp (metadata first) so output is stable for a given span history.
// Safe on a nil tracer (writes an empty trace).
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`+"\n")
		return err
	}
	t.mu.Lock()
	evs := make([]traceEvent, 0, len(t.events)+1)
	evs = append(evs, traceEvent{Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]any{"name": "soma"}})
	evs = append(evs, t.events...)
	dropped := t.dropped
	t.mu.Unlock()
	sort.SliceStable(evs, func(a, b int) bool {
		// Metadata first, then by timestamp.
		am, bm := evs[a].Ph == "M", evs[b].Ph == "M"
		if am != bm {
			return am
		}
		return evs[a].TS < evs[b].TS
	})
	type traceFile struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		Dropped         int64        `json:"droppedEventCount,omitempty"`
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: evs, DisplayTimeUnit: "ms", Dropped: dropped})
}

// Obs bundles a metrics registry and a tracer: the single handle threaded
// through engine requests, sweep options, and somad jobs. A nil *Obs (the
// default everywhere) disables both.
type Obs struct {
	Reg    *Registry
	Tracer *Tracer
}

// New returns an Obs with a fresh registry and tracer.
func New() *Obs {
	return &Obs{Reg: NewRegistry(), Tracer: NewTracer()}
}

// Registry returns the metrics registry (nil when o is nil), safe to pass
// straight to instrument constructors.
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Reg
}

// Trace returns the tracer (nil when o is nil).
func (o *Obs) Trace() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}
