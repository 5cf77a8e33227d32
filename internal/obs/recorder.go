package obs

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"sort"
	"time"

	"repro/internal/sim"
)

// The flight recorder snapshots every registered counter and gauge into
// fixed-capacity ring-buffer time series as virtual time advances. It
// is the aggregate complement to per-invocation spans: pool
// utilization, warm-hit ratio, fault rates, and sharing factor *over a
// run*, cheap enough to leave on for every figure run.

const (
	// DefaultSeriesCapacity bounds each ring-buffer series; once full the
	// oldest points are overwritten in place.
	DefaultSeriesCapacity = 4096
	// DefaultSampleInterval is the virtual-time spacing between samples
	// when the caller does not choose one.
	DefaultSampleInterval = 100 * time.Millisecond
)

// Point is one sampled value of one series at a virtual instant. Rate
// is the per-second rate of change since the previous sample, derived
// for counter series only (zero for gauges and for the first sample).
type Point struct {
	T     time.Duration
	Value float64
	Rate  float64
}

// TimeSeries is a fixed-capacity ring of points for one registry
// series.
type TimeSeries struct {
	Name    string
	Labels  map[string]string
	Key     string
	Counter bool

	cap     int
	points  []Point
	head    int // oldest retained point once full
	dropped int64

	lastT time.Duration
	lastV float64
	seen  bool
}

func (ts *TimeSeries) push(p Point) {
	if len(ts.points) < ts.cap {
		ts.points = append(ts.points, p)
		return
	}
	ts.points[ts.head] = p
	ts.head = (ts.head + 1) % ts.cap
	ts.dropped++
}

// Points returns the retained points, oldest first.
func (ts *TimeSeries) Points() []Point {
	out := make([]Point, 0, len(ts.points))
	out = append(out, ts.points[ts.head:]...)
	out = append(out, ts.points[:ts.head]...)
	return out
}

// Len returns how many points are retained.
func (ts *TimeSeries) Len() int { return len(ts.points) }

// Dropped returns how many points aged out of the ring.
func (ts *TimeSeries) Dropped() int64 { return ts.dropped }

// Last returns the most recent point (zero Point when empty).
func (ts *TimeSeries) Last() Point {
	if len(ts.points) == 0 {
		return Point{}
	}
	if len(ts.points) < ts.cap {
		return ts.points[len(ts.points)-1]
	}
	return ts.points[(ts.head+ts.cap-1)%ts.cap]
}

// at returns the i-th retained point, oldest first.
func (ts *TimeSeries) at(i int) Point {
	if len(ts.points) < ts.cap {
		return ts.points[i]
	}
	return ts.points[(ts.head+i)%ts.cap]
}

// RateOver returns the average per-second rate of change between the
// newest retained point and the newest point at or before now-window
// (the oldest retained point when the window reaches past the ring).
// ok is false when fewer than two distinct instants bound the window —
// no data yields no rate, never zero. Alert rate rules use this instead
// of the instantaneous per-sample Rate, which is too spiky to threshold.
func (ts *TimeSeries) RateOver(now, window time.Duration) (rate float64, ok bool) {
	n := len(ts.points)
	if n < 2 {
		return 0, false
	}
	last := ts.at(n - 1)
	cut := now - window
	baseline := ts.at(0)
	for i := n - 2; i >= 0; i-- {
		if p := ts.at(i); p.T <= cut {
			baseline = p
			break
		}
	}
	if baseline.T >= last.T {
		return 0, false
	}
	return safeRate(last.Value-baseline.Value, last.T-baseline.T), true
}

// Recorder samples a registry into per-series rings. Series appear as
// the registry first reports them (dynamic families grow during a run).
type Recorder struct {
	reg     *Registry
	cap     int
	series  map[string]*TimeSeries
	order   []string // sorted keys
	samples int64

	// onSample, when set, runs after every Sample with the sampled
	// instant — the alert engine hooks rule evaluation here so alerting
	// rides the existing sampling pump instead of scheduling events of
	// its own.
	onSample func(now time.Duration)
}

// NewRecorder records reg's series into rings of the given capacity
// (DefaultSeriesCapacity when capacity <= 0).
func NewRecorder(reg *Registry, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultSeriesCapacity
	}
	return &Recorder{reg: reg, cap: capacity, series: make(map[string]*TimeSeries)}
}

// Sample gathers the registry once at virtual time now. Re-sampling the
// same instant is a no-op per series, so overlapping pumps cannot
// duplicate points.
func (r *Recorder) Sample(now time.Duration) {
	for _, s := range r.reg.Gather() {
		ts, ok := r.series[s.Key]
		if !ok {
			ts = &TimeSeries{Name: s.Name, Labels: s.Labels, Key: s.Key, Counter: s.Counter, cap: r.cap}
			r.series[s.Key] = ts
			i := sort.SearchStrings(r.order, s.Key)
			r.order = append(r.order, "")
			copy(r.order[i+1:], r.order[i:])
			r.order[i] = s.Key
		}
		if ts.seen && now <= ts.lastT {
			continue
		}
		var rate float64
		if s.Counter && ts.seen {
			rate = safeRate(s.Value-ts.lastV, now-ts.lastT)
		}
		ts.push(Point{T: now, Value: s.Value, Rate: rate})
		ts.lastT, ts.lastV, ts.seen = now, s.Value, true
	}
	r.samples++
	if r.onSample != nil {
		r.onSample(now)
	}
}

// SetOnSample registers a hook that runs after every Sample with the
// sampled virtual instant (nil clears it). Consumers that must see
// exactly the instants the recorder saw — the alert engine — bind here.
func (r *Recorder) SetOnSample(fn func(now time.Duration)) { r.onSample = fn }

// safeRate returns delta per second over elapsed, or 0 when the
// interval is zero or negative — rates must never divide by a
// degenerate interval (clock stalls, duplicate samples, reordered
// pumps), they degrade to "no rate" instead of Inf/NaN.
func safeRate(delta float64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return delta / elapsed.Seconds()
}

// Samples returns how many times Sample ran.
func (r *Recorder) Samples() int64 { return r.samples }

// Registry returns the registry this recorder samples — the report
// builder gathers a run's end-state metrics through it.
func (r *Recorder) Registry() *Registry { return r.reg }

// Series returns every recorded series sorted by key.
func (r *Recorder) Series() []*TimeSeries {
	out := make([]*TimeSeries, 0, len(r.order))
	for _, k := range r.order {
		out = append(out, r.series[k])
	}
	return out
}

// Lookup returns the series for name with exactly the given labels, or
// nil if never sampled.
func (r *Recorder) Lookup(name string, labels map[string]string) *TimeSeries {
	return r.series[name+renderLabels(labels, "")]
}

// PumpWhile samples every interval of virtual time on eng, starting
// now, and keeps going while cont returns true (checked after each
// sample, so the final state is always captured). A nil cont pumps
// until the engine drains — every pending tick schedules the next, so
// only use nil when something else bounds the run.
func (r *Recorder) PumpWhile(eng *sim.Engine, every time.Duration, cont func() bool) {
	if every <= 0 {
		every = DefaultSampleInterval
	}
	var tick func()
	tick = func() {
		r.Sample(eng.Now())
		if cont == nil || cont() {
			eng.After(every, tick)
		}
	}
	eng.After(0, tick)
}

// --- export ---

type pointJSON struct {
	TMS   float64 `json:"t_ms"`
	Value float64 `json:"v"`
	Rate  float64 `json:"rate,omitempty"`
}

type seriesJSON struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Counter bool              `json:"counter,omitempty"`
	Dropped int64             `json:"dropped,omitempty"`
	Points  []pointJSON       `json:"points"`
}

type recorderJSON struct {
	Samples int64        `json:"samples"`
	Series  []seriesJSON `json:"series"`
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (r *Recorder) export() recorderJSON {
	doc := recorderJSON{Samples: r.samples, Series: make([]seriesJSON, 0, len(r.order))}
	for _, ts := range r.Series() {
		sj := seriesJSON{Name: ts.Name, Labels: ts.Labels, Counter: ts.Counter, Dropped: ts.dropped}
		for _, p := range ts.Points() {
			sj.Points = append(sj.Points, pointJSON{TMS: durMS(p.T), Value: p.Value, Rate: p.Rate})
		}
		doc.Series = append(doc.Series, sj)
	}
	return doc
}

// WriteJSON writes the recorded series as a single JSON document.
// Series are sorted by key and label maps marshal with sorted keys, so
// same-seed runs produce byte-identical output.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r.export())
}

// csvHeader is shared by Recorder.WriteCSV and RecorderSet.WriteCSV
// (the latter prefixes a run column).
var csvHeader = []string{"series", "labels", "t_ms", "value", "rate_per_s"}

func writeSeriesCSV(cw *csv.Writer, prefix []string, series []*TimeSeries) error {
	for _, ts := range series {
		labels := renderLabels(ts.Labels, "")
		for _, p := range ts.Points() {
			row := append(append([]string(nil), prefix...),
				ts.Name,
				labels,
				formatValue(durMS(p.T)),
				formatValue(p.Value),
				formatValue(p.Rate),
			)
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteCSV writes one row per point: series,labels,t_ms,value,rate_per_s.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	if err := writeSeriesCSV(cw, nil, r.Series()); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// RecorderSet groups one flight recorder per run (one experiment
// configuration, one policy...) for a single export file — what
// `trenv-bench -timeseries` threads through the figure runs.
type RecorderSet struct {
	every time.Duration
	cap   int
	runs  []recorderRun
}

type recorderRun struct {
	Run string
	Rec *Recorder
}

// NewRecorderSet builds a set whose recorders sample every interval
// into rings of the given capacity (defaults apply when <= 0).
func NewRecorderSet(every time.Duration, capacity int) *RecorderSet {
	if every <= 0 {
		every = DefaultSampleInterval
	}
	if capacity <= 0 {
		capacity = DefaultSeriesCapacity
	}
	return &RecorderSet{every: every, cap: capacity}
}

// Every returns the sampling interval.
func (s *RecorderSet) Every() time.Duration { return s.every }

// Track adds a recorder over reg for a named run and returns it.
func (s *RecorderSet) Track(run string, reg *Registry) *Recorder {
	rec := NewRecorder(reg, s.cap)
	s.runs = append(s.runs, recorderRun{Run: run, Rec: rec})
	return rec
}

// Runs returns how many runs the set tracks.
func (s *RecorderSet) Runs() int { return len(s.runs) }

// Each visits every tracked run in the order it was added.
func (s *RecorderSet) Each(fn func(run string, rec *Recorder)) {
	for _, rr := range s.runs {
		fn(rr.Run, rr.Rec)
	}
}

type runJSON struct {
	Run     string       `json:"run"`
	Samples int64        `json:"samples"`
	Series  []seriesJSON `json:"series"`
}

// WriteJSON writes every run's series as one JSON document, in the
// order the runs were tracked.
func (s *RecorderSet) WriteJSON(w io.Writer) error {
	doc := struct {
		Runs []runJSON `json:"runs"`
	}{Runs: make([]runJSON, 0, len(s.runs))}
	for _, rr := range s.runs {
		rd := rr.Rec.export()
		doc.Runs = append(doc.Runs, runJSON{Run: rr.Run, Samples: rd.Samples, Series: rd.Series})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// WriteCSV writes every run's points with a leading run column.
func (s *RecorderSet) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"run"}, csvHeader...)); err != nil {
		return err
	}
	for _, rr := range s.runs {
		if err := writeSeriesCSV(cw, []string{rr.Run}, rr.Rec.Series()); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// RegisterTracerDrops exposes a span tracer's drop count.
func RegisterTracerDrops(reg *Registry, labels map[string]string, tr *Tracer) {
	reg.CounterFunc("trenv_spans_dropped_total",
		"Invocation spans that aged out of the tracer ring.",
		labels, tr.Dropped)
}
