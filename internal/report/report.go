// Package report turns any simulator run into a comparable artifact:
// the schema-stable trenv-report/v1 bundle captures a run's identity
// (seed, scale, flags, build version), its gathered Prometheus metrics,
// flight-recorder time series, trace analytics, figure result lines,
// and a flattened virtual-time-ordered span list. Every slice is sorted
// and every map marshals with sorted keys, so a fixed seed produces
// byte-identical bundles — which is what lets internal/diff attribute a
// regression instead of reporting "bytes differ".
//
// Bundles are producible from every run shape in the repo: experiments
// (experiments.BuildReport), a single node (FromPlatform), a rack
// (FromCluster), the wall-clock self-benchmark (FromSelfbench), and a
// live daemon (trenvd GET /report). Only FromSelfbench carries
// host-dependent numbers, and those live in the clearly-marked Bench
// block that internal/diff gates with tolerance bands instead of
// equality.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	"repro/internal/alert"
	"repro/internal/cluster"
	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/selfbench"
)

// Schema identifies the bundle layout; bump the suffix on any
// incompatible field change so trenv-diff refuses to compare artifacts
// across layouts.
const Schema = "trenv-report/v1"

// DefaultMaxPoints bounds each exported time series. Thinning is
// deterministic (fixed stride, last point always kept), so two
// same-seed bundles thin identically.
const DefaultMaxPoints = 128

// Metric is one gathered registry sample at the end of a run.
type Metric struct {
	Run     string            `json:"run,omitempty"`
	Key     string            `json:"key"`
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value"`
	Counter bool              `json:"counter,omitempty"`
}

// Point is one sampled series value at a virtual instant.
type Point struct {
	TMS float64 `json:"t_ms"`
	V   float64 `json:"v"`
}

// Series is one flight-recorder time series, possibly thinned.
type Series struct {
	Run     string            `json:"run,omitempty"`
	Key     string            `json:"key"`
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Counter bool              `json:"counter,omitempty"`
	Points  []Point           `json:"points"`
}

// SpanRecord is one flattened span: enough identity to name the exact
// divergence point (trace, virtual time, phase, node) without carrying
// the whole tree. Records sort by virtual start time, so walking two
// same-seed lists in parallel finds the first divergent span.
type SpanRecord struct {
	TraceID  string  `json:"trace_id"`
	SpanID   string  `json:"span_id"`
	Name     string  `json:"name"`
	Node     string  `json:"node,omitempty"`
	Function string  `json:"function,omitempty"`
	StartUs  float64 `json:"start_us"`
	DurUs    float64 `json:"dur_us"`
	Error    string  `json:"error,omitempty"`
}

// Figure is one experiment result's rendered rows (the paper-style
// lines trenv-bench prints) — the most directly human-meaningful thing
// a diff can quote.
type Figure struct {
	ID    string   `json:"id"`
	Title string   `json:"title"`
	Lines []string `json:"lines"`
}

// Report is the trenv-report/v1 bundle. Field order is part of the
// schema: identity precedes every data block so line-oriented tooling
// can read seed/scale/source without a JSON parser.
type Report struct {
	Schema    string            `json:"schema"`
	Source    string            `json:"source"`
	Seed      int64             `json:"seed"`
	Scale     float64           `json:"scale"`
	GoVersion string            `json:"go_version"`
	Version   string            `json:"version"`
	Flags     map[string]string `json:"flags,omitempty"`

	// Bench carries wall-clock readings (selfbench aggregates). They are
	// host-dependent by definition, so internal/diff gates them with
	// tolerance bands and never includes them in determinism triage.
	Bench map[string]float64 `json:"bench,omitempty"`

	Figures  []Figure      `json:"figures,omitempty"`
	Metrics  []Metric      `json:"metrics,omitempty"`
	Series   []Series      `json:"series,omitempty"`
	Analysis *obs.Report   `json:"analysis,omitempty"`
	Alerts   []AlertRecord `json:"alerts,omitempty"`
	Spans    []SpanRecord  `json:"spans,omitempty"`
}

// AlertRecord is one alert rule's end-of-run state: its canonical spec
// (self-describing, so a diff can quote the rule), lifecycle state, how
// often it fired, and each captured incident with the trace IDs of the
// worst invocations inside its window.
type AlertRecord struct {
	Run       string          `json:"run,omitempty"`
	Rule      string          `json:"rule"`
	Kind      string          `json:"kind"`
	Spec      string          `json:"spec"`
	State     string          `json:"state"`
	Fired     int64           `json:"fired"`
	Incidents []AlertIncident `json:"incidents,omitempty"`
}

// AlertIncident is one flattened incident: virtual-time lifecycle plus
// trace links into the bundle's span list.
type AlertIncident struct {
	ID         string   `json:"id"`
	Detail     string   `json:"detail,omitempty"`
	PendingMS  float64  `json:"pending_ms"`
	FiringMS   float64  `json:"firing_ms"`
	ResolvedMS float64  `json:"resolved_ms,omitempty"`
	Resolved   bool     `json:"resolved"`
	TraceIDs   []string `json:"trace_ids,omitempty"`
}

// New returns an empty bundle stamped with the run's identity.
// GoVersion and Version are informational: diff never compares them, so
// a baseline generated by one toolchain gates runs from another.
func New(source string, seed int64, scale float64) *Report {
	return &Report{
		Schema:    Schema,
		Source:    source,
		Seed:      seed,
		Scale:     scale,
		GoVersion: runtime.Version(),
		Version:   obs.Version(),
	}
}

// SetFlag records one run-configuration flag ("policy", "prefetch",
// "chaos", ...) in the bundle's identity.
func (r *Report) SetFlag(k, v string) *Report {
	if r.Flags == nil {
		r.Flags = make(map[string]string)
	}
	r.Flags[k] = v
	return r
}

// AddFigure appends one experiment result's rendered rows.
func (r *Report) AddFigure(id, title string, lines []string) {
	r.Figures = append(r.Figures, Figure{ID: id, Title: title, Lines: lines})
}

// AddMetrics gathers reg's current state into the bundle under the
// given run name ("" for single-run bundles).
func (r *Report) AddMetrics(run string, reg *obs.Registry) {
	for _, s := range reg.Gather() {
		r.Metrics = append(r.Metrics, Metric{
			Run:     run,
			Key:     s.Key,
			Name:    s.Name,
			Labels:  s.Labels,
			Value:   s.Value,
			Counter: s.Counter,
		})
	}
}

// AddRecorder exports rec's series under the given run name, thinning
// each to at most maxPoints (<= 0 means DefaultMaxPoints).
func (r *Report) AddRecorder(run string, rec *obs.Recorder, maxPoints int) {
	if maxPoints <= 0 {
		maxPoints = DefaultMaxPoints
	}
	for _, ts := range rec.Series() {
		s := Series{Run: run, Key: ts.Key, Name: ts.Name, Labels: ts.Labels, Counter: ts.Counter}
		for _, p := range thinPoints(ts.Points(), maxPoints) {
			s.Points = append(s.Points, Point{TMS: float64(p.T.Microseconds()) / 1000, V: p.Value})
		}
		r.Series = append(r.Series, s)
	}
}

// AddRecorderSet exports every tracked run: its end-state metrics (from
// the run's registry) and its thinned series.
func (r *Report) AddRecorderSet(set *obs.RecorderSet, maxPoints int) {
	set.Each(func(run string, rec *obs.Recorder) {
		r.AddMetrics(run, rec.Registry())
		r.AddRecorder(run, rec, maxPoints)
	})
}

// thinPoints keeps every stride-th point so at most max survive, always
// including the final point — deterministic, so two same-seed bundles
// thin identically.
func thinPoints(pts []obs.Point, max int) []obs.Point {
	if len(pts) <= max {
		return pts
	}
	stride := (len(pts) + max - 1) / max
	out := make([]obs.Point, 0, max)
	for i := 0; i < len(pts); i += stride {
		out = append(out, pts[i])
	}
	if last := pts[len(pts)-1]; len(out) == 0 || out[len(out)-1] != last {
		out = append(out, last)
	}
	return out
}

// AddSpans flattens every root tree into virtual-time-ordered span
// records. The function attr is inherited from the root so child phases
// stay attributable.
func (r *Report) AddSpans(roots []*obs.Span) {
	for _, root := range roots {
		fn := ""
		if root.Attrs != nil {
			fn = root.Attrs["function"]
		}
		root.Walk(func(_ int, sp *obs.Span) {
			rec := SpanRecord{
				TraceID:  sp.TraceID,
				SpanID:   sp.SpanID,
				Name:     sp.Name,
				Function: fn,
				StartUs:  float64(sp.Start.Nanoseconds()) / 1000,
				DurUs:    float64(sp.Duration().Nanoseconds()) / 1000,
				Error:    sp.Error,
			}
			if sp.Attrs != nil {
				rec.Node = sp.Attrs["node"]
			}
			r.Spans = append(r.Spans, rec)
		})
	}
}

// AddAlerts records every rule's end-of-run state from an alert engine
// under the given run name, folding each rule's incidents (with their
// worst-invocation trace links) into its record.
func (r *Report) AddAlerts(run string, eng *alert.Engine) {
	byRule := make(map[string][]AlertIncident)
	for _, inc := range eng.Incidents() {
		ai := AlertIncident{
			ID:         inc.ID,
			Detail:     inc.Detail,
			PendingMS:  inc.PendingMS,
			FiringMS:   inc.FiringMS,
			ResolvedMS: inc.ResolvedMS,
			Resolved:   inc.Resolved,
		}
		for _, w := range inc.Worst {
			ai.TraceIDs = append(ai.TraceIDs, w.TraceID)
		}
		byRule[inc.Rule] = append(byRule[inc.Rule], ai)
	}
	for _, st := range eng.Snapshot() {
		r.Alerts = append(r.Alerts, AlertRecord{
			Run:       run,
			Rule:      st.Rule.Name,
			Kind:      string(st.Rule.Kind),
			Spec:      st.Rule.Spec(),
			State:     string(st.State),
			Fired:     st.Fired,
			Incidents: byRule[st.Rule.Name],
		})
	}
}

// Analyze attaches the trace-analytics report over the given roots.
func (r *Report) Analyze(roots []*obs.Span, topK int) {
	r.Analysis = obs.Analyze(roots, topK)
}

// Sort puts every slice into its canonical order — metrics and series
// by (run, key), spans by virtual start time, figures by ID. WriteJSON,
// the From* constructors, and diff.Compare all call it, so bundle
// serialization and span triage are deterministic regardless of
// insertion order.
func (r *Report) Sort() {
	sort.SliceStable(r.Metrics, func(i, j int) bool {
		if r.Metrics[i].Run != r.Metrics[j].Run {
			return r.Metrics[i].Run < r.Metrics[j].Run
		}
		return r.Metrics[i].Key < r.Metrics[j].Key
	})
	sort.SliceStable(r.Series, func(i, j int) bool {
		if r.Series[i].Run != r.Series[j].Run {
			return r.Series[i].Run < r.Series[j].Run
		}
		return r.Series[i].Key < r.Series[j].Key
	})
	sort.SliceStable(r.Spans, func(i, j int) bool {
		a, b := r.Spans[i], r.Spans[j]
		if a.StartUs != b.StartUs {
			return a.StartUs < b.StartUs
		}
		if a.TraceID != b.TraceID {
			return a.TraceID < b.TraceID
		}
		return a.SpanID < b.SpanID
	})
	sort.SliceStable(r.Figures, func(i, j int) bool { return r.Figures[i].ID < r.Figures[j].ID })
	sort.SliceStable(r.Alerts, func(i, j int) bool {
		if r.Alerts[i].Run != r.Alerts[j].Run {
			return r.Alerts[i].Run < r.Alerts[j].Run
		}
		return r.Alerts[i].Rule < r.Alerts[j].Rule
	})
}

// WriteJSON writes the bundle with stable indentation and field order.
// Single-space indent keeps committed baselines line-oriented (one
// field per line, greppable) without doubling their size.
func (r *Report) WriteJSON(w io.Writer) error {
	r.Sort()
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r)
}

// WriteFile writes the bundle to path.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Decode parses a bundle, refusing anything that does not carry the
// trenv-report/v1 schema.
func Decode(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("report: decode: %w", err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("report: schema %q is not %q", r.Schema, Schema)
	}
	return &r, nil
}

// ReadFile parses the bundle at path.
func ReadFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	defer f.Close()
	return Decode(f)
}

// FromPlatform bundles a finished single-node run: identity from the
// platform's config, end-state metrics from a fresh registry, spans and
// analytics from the attached tracer (skipped when tracing was off).
func FromPlatform(source string, scale float64, pl *faas.Platform) *Report {
	r := New(source, pl.Seed(), scale)
	r.SetFlag("policy", string(pl.Policy()))
	if n := pl.NodeName(); n != "" {
		r.SetFlag("node", n)
	}
	reg := obs.NewRegistry()
	pl.RegisterMetrics(reg)
	r.AddMetrics("", reg)
	if tr := pl.Tracer(); tr != nil {
		roots := tr.Spans()
		r.AddSpans(roots)
		r.Analyze(roots, 0)
	}
	if ae := pl.Alerts(); ae != nil {
		r.AddAlerts("", ae)
	}
	r.Sort()
	return r
}

// FromCluster bundles a finished rack run: fleet metrics (per-node and
// rack aggregates) plus spans and analytics from tracer (nil skips).
func FromCluster(source string, scale float64, c *cluster.Cluster, tracer *obs.Tracer) *Report {
	r := New(source, c.Seed(), scale)
	r.SetFlag("nodes", fmt.Sprintf("%d", len(c.Nodes())))
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	r.AddMetrics("", reg)
	if tracer != nil {
		roots := tracer.Spans()
		r.AddSpans(roots)
		r.Analyze(roots, 0)
	}
	if ae := c.Alerts(); ae != nil {
		r.AddAlerts("", ae)
	}
	r.Sort()
	return r
}

// FromSelfbench converts a wall-clock self-benchmark artifact: the
// host-dependent aggregate lands in Bench (tolerance-gated, never
// triaged) and each run's deterministic work counts become metrics
// (equality-gated — count drift means the workload changed, which is a
// different failure than a slow host).
func FromSelfbench(sb *selfbench.Report) *Report {
	r := New("selfbench", sb.Seed, sb.Scale)
	r.Bench = map[string]float64{
		"events_per_sec":      sb.Aggregate.EventsPerSec,
		"invocations_per_sec": sb.Aggregate.InvocationsPerSec,
		"spans_per_sec":       sb.Aggregate.SpansPerSec,
		"allocs_per_event":    sb.Aggregate.AllocsPerEvent,
		"bytes_per_event":     sb.Aggregate.BytesPerEvent,
		"wall_ms_per_sim_sec": sb.Aggregate.WallMSPerSimSec,
		"obs_overhead_pct":    sb.Aggregate.ObsOverheadPct,
	}
	for _, run := range sb.Runs {
		for key, v := range map[string]float64{
			"events":      float64(run.Events),
			"invocations": float64(run.Invocations),
			"spans":       float64(run.Spans),
			"sim_seconds": run.SimSeconds,
		} {
			r.Metrics = append(r.Metrics, Metric{Run: run.Name, Key: key, Name: key, Value: v})
		}
	}
	r.Sort()
	return r
}
