// Package obs is the observability layer for the simulated TrEnv stack:
// hierarchical spans over virtual time, a pull-based metrics registry
// with Prometheus text-format export, and trace exporters (Chrome
// trace-event JSON, streaming JSONL).
//
// Everything is virtual-time-aware: spans carry time.Duration offsets
// from the simulation epoch, not wall-clock timestamps, so a fixed seed
// produces byte-identical exports across runs.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Span is one timed phase of an operation in virtual time. A root span
// (an invocation, an agent run) owns a tree of child phases whose
// durations decompose the parent's.
type Span struct {
	Name  string
	Start time.Duration // virtual-time offset of the phase start
	End   time.Duration // virtual-time offset of the phase end
	// TraceID identifies the root tree this span belongs to; SpanID
	// identifies the span within it. Both are deterministic (see
	// TraceIDFor): assigned by the recording layer or, as a fallback,
	// by Tracer.Record from its sequence counter.
	TraceID string
	SpanID  string
	// Links reference causally-related spans in other traces (a remote
	// memory-pool fetch serving this restore, the invocation that
	// triggered this eviction).
	Links []Link
	// Attrs carry small key/value annotations (function, policy, path).
	Attrs map[string]string
	// Error is the failure description ("" = success).
	Error    string
	Children []*Span
}

// NewSpan returns a span covering [start, end].
func NewSpan(name string, start, end time.Duration) *Span {
	if end < start {
		panic(fmt.Sprintf("obs: span %q ends (%v) before it starts (%v)", name, end, start))
	}
	return &Span{Name: name, Start: start, End: end}
}

// Duration returns the span's length.
func (s *Span) Duration() time.Duration { return s.End - s.Start }

// SetAttr annotates the span.
func (s *Span) SetAttr(k, v string) *Span {
	if s.Attrs == nil {
		s.Attrs = make(map[string]string)
	}
	s.Attrs[k] = v
	return s
}

// Child appends a child phase covering [start, end] and returns it.
func (s *Span) Child(name string, start, end time.Duration) *Span {
	c := NewSpan(name, start, end)
	s.Children = append(s.Children, c)
	return c
}

// Fail marks the span failed.
func (s *Span) Fail(err error) *Span {
	if err != nil {
		s.Error = err.Error()
	}
	return s
}

// AddLink attaches a causal reference to a span in another trace.
func (s *Span) AddLink(l Link) *Span {
	s.Links = append(s.Links, l)
	return s
}

// AssignIDs stamps the whole tree with traceID and deterministic
// per-span IDs derived from the tree's depth-first walk order. Safe to
// call once the tree's shape is final.
func (s *Span) AssignIDs(traceID string) *Span {
	i := 0
	s.Walk(func(_ int, sp *Span) {
		sp.TraceID = traceID
		sp.SpanID = spanIDFor(traceID, i)
		i++
	})
	return s
}

// Find returns the span in s's subtree with the given SpanID, or nil.
func (s *Span) Find(spanID string) *Span {
	var out *Span
	s.Walk(func(_ int, sp *Span) {
		if out == nil && sp.SpanID == spanID {
			out = sp
		}
	})
	return out
}

// SelfTime returns the span's duration not covered by its direct
// children (clamped at zero for overfull decompositions).
func (s *Span) SelfTime() time.Duration {
	self := s.Duration() - s.ChildrenTotal()
	if self < 0 {
		return 0
	}
	return self
}

// Walk visits the span and its subtree depth-first, parents before
// children, in recorded order.
func (s *Span) Walk(fn func(depth int, sp *Span)) {
	var rec func(d int, sp *Span)
	rec = func(d int, sp *Span) {
		fn(d, sp)
		for _, c := range sp.Children {
			rec(d+1, c)
		}
	}
	rec(0, s)
}

// ChildrenTotal sums the direct children's durations — phase
// decompositions keep this equal to the parent's own duration.
func (s *Span) ChildrenTotal() time.Duration {
	var t time.Duration
	for _, c := range s.Children {
		t += c.Duration()
	}
	return t
}

// String renders the span tree, one line per phase.
func (s *Span) String() string {
	var b strings.Builder
	s.Walk(func(d int, sp *Span) {
		fmt.Fprintf(&b, "%s%-20s %12v +%v", strings.Repeat("  ", d), sp.Name, sp.Start, sp.Duration())
		if sp.Error != "" {
			fmt.Fprintf(&b, "  ERROR: %s", sp.Error)
		}
		b.WriteByte('\n')
	})
	return b.String()
}

// Tracer collects completed root spans into a bounded ring (oldest
// dropped first).
// It is safe for concurrent use, though the simulation itself records
// from a single goroutine at a time.
type Tracer struct {
	mu      sync.Mutex
	roots   []*Span // circular once len == max
	head    int     // index of the oldest retained root
	max     int
	seq     int64 // fallback trace-ID sequence for unstamped roots
	dropped int64
}

// DefaultTracerCapacity bounds a tracer built with capacity <= 0.
const DefaultTracerCapacity = 4096

// NewTracer keeps at most max root spans (<= 0 means
// DefaultTracerCapacity).
func NewTracer(max int) *Tracer {
	if max <= 0 {
		max = DefaultTracerCapacity
	}
	return &Tracer{max: max}
}

// Record retains a completed root span.
func (t *Tracer) Record(root *Span) {
	if root == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if root.TraceID == "" {
		root.AssignIDs(TraceIDFor("tracer", strconv.FormatInt(t.seq, 10), root.Name))
	}
	t.seq++
	if len(t.roots) < t.max {
		t.roots = append(t.roots, root)
	} else {
		t.roots[t.head] = root
		t.head = (t.head + 1) % t.max
		t.dropped++
	}
}

// Spans returns the retained root spans, oldest first.
func (t *Tracer) Spans() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, 0, len(t.roots))
	out = append(out, t.roots[t.head:]...)
	out = append(out, t.roots[:t.head]...)
	return out
}

// Last returns the most recent n root spans, oldest first (n <= 0 or
// n > retained means all).
func (t *Tracer) Last(n int) []*Span {
	all := t.Spans()
	if n <= 0 || n >= len(all) {
		return all
	}
	return all[len(all)-n:]
}

// Find returns the retained root span with the given TraceID, or nil.
func (t *Tracer) Find(traceID string) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.roots {
		if r.TraceID == traceID {
			return r
		}
	}
	return nil
}

// Len returns how many root spans are retained.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.roots)
}

// Dropped returns how many root spans aged out of the ring.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// spanJSON is the serialized span shape WriteJSONL writes. Map attrs
// serialize with sorted keys, keeping output deterministic.
type spanJSON struct {
	Name     string            `json:"name"`
	TraceID  string            `json:"trace_id,omitempty"`
	SpanID   string            `json:"span_id,omitempty"`
	StartUs  float64           `json:"start_us"`
	DurUs    float64           `json:"dur_us"`
	Links    []Link            `json:"links,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Error    string            `json:"error,omitempty"`
	Children []spanJSON        `json:"children,omitempty"`
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func spanToJSON(s *Span) spanJSON {
	out := spanJSON{
		Name:    s.Name,
		TraceID: s.TraceID,
		SpanID:  s.SpanID,
		StartUs: micros(s.Start),
		DurUs:   micros(s.Duration()),
		Links:   s.Links,
		Attrs:   s.Attrs,
		Error:   s.Error,
	}
	for _, c := range s.Children {
		out.Children = append(out.Children, spanToJSON(c))
	}
	return out
}

// WriteJSONL writes one JSON line per root span.
func WriteJSONL(w io.Writer, roots []*Span) error {
	enc := json.NewEncoder(w)
	for _, r := range roots {
		if err := enc.Encode(spanToJSON(r)); err != nil {
			return fmt.Errorf("obs: write jsonl: %w", err)
		}
	}
	return nil
}
