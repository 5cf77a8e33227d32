package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Registry is a pull-based metrics registry: components register
// counters, gauges, and histograms once, and every export reads their
// current values. Values come from closures (or live sim.Histogram
// references), so instrumented code keeps using the repo's existing
// sim.Counter / sim.Histogram types unchanged.
//
// Every series compiles once into a handle: its label set, its
// pre-rendered sample keys and Prometheus label strings, and a reader.
// Static series compile at registration; a dynamic family's members
// compile the first time the registry sees them. Gather, the flight
// recorder and the Prometheus writer are loops over those handles, so
// reading a registry renders, sorts and allocates nothing per series.
//
// Ownership is one-way: the registry holds readers into its sources,
// and sources never hold a reference back to a registry. A registry is
// not safe for concurrent use, reads included: a read compiles the
// members that joined since the last one.
type Registry struct {
	families map[string]*family
	names    []string // family names, sorted
	// slots holds every sample (a counter or gauge series, or a
	// summary's _count and _sum) sorted by key. A slot's id is its
	// position in creation order and never changes.
	slots   []*slot
	dynamic []*dynamic
}

type familyKind string

const (
	kindCounter familyKind = "counter"
	kindGauge   familyKind = "gauge"
	kindSummary familyKind = "summary"
)

type family struct {
	name   string
	help   string
	kind   familyKind
	series []*series // sorted by rendered labels
}

// series is one compiled series: the handle every read goes through.
type series struct {
	labels map[string]string
	base   string // `{k="v",...}` with sorted keys, "" when unlabeled
	value  func() float64
	hist   *sim.Histogram
	ex     func() *ExemplarReservoir
	// quantiles holds the summary's `{...,quantile="q"}` label strings,
	// one per summaryQuantiles entry; les the `{...,le="b"}` bucket
	// label strings for lesFor's bounds, rendered on first scrape.
	quantiles []string
	les       []string
	lesFor    *ExemplarReservoir
}

// slot is one gathered sample of a series.
type slot struct {
	id      int
	name    string // sample name: the family name, or name_count / name_sum
	key     string // name plus the series' rendered labels
	s       *series
	sum     bool // a summary's _sum (its _count otherwise)
	counter bool
}

func (sl *slot) read() float64 {
	switch {
	case sl.s.hist == nil:
		return sl.s.value()
	case sl.sum:
		return sl.s.hist.Sum()
	default:
		return float64(sl.s.hist.N())
	}
}

// Member is one series of a dynamic family. Value reads a counter or
// gauge member; Hist is a summary member's live histogram, and
// Exemplars, when set, returns its exemplar reservoir (nil until one
// exists).
type Member struct {
	Labels    map[string]string
	Value     func() float64
	Hist      *sim.Histogram
	Exemplars func() *ExemplarReservoir
}

// Members is a dynamic family's member source: the series that join a
// family during a run (a function's first invocation, a newly tracked
// SLO). Members join in a fixed order and never leave, so member i
// always names the same series. The registry polls Len on every read,
// which must not allocate, and calls Member once per new index, in
// order, to compile that member's labels and reader.
type Members struct {
	Len    func() int
	Member func(i int) Member
}

type dynamic struct {
	fam   *family
	src   Members
	known int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func checkName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	for i, r := range name {
		ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric name %q", name))
		}
	}
}

// checkLabelName enforces the label-name grammar [a-zA-Z_][a-zA-Z0-9_]*.
func checkLabelName(name string) {
	if name == "" {
		panic("obs: empty label name")
	}
	for i, r := range name {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid label name %q", name))
		}
	}
}

func (r *Registry) familyFor(name, help string, kind familyKind) *family {
	checkName(name)
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
		i := sort.SearchStrings(r.names, name)
		r.names = append(r.names, "")
		copy(r.names[i+1:], r.names[i:])
		r.names[i] = name
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	return f
}

// compile turns one series into a handle: it validates the labels,
// renders every key and label string the exports need, rejects a
// series whose samples collide with an existing one, and files the
// handle and its slots in sorted order.
func (r *Registry) compile(f *family, s *series) {
	for k := range s.labels {
		checkLabelName(k)
	}
	s.base = renderLabels(s.labels, "")
	var slots []*slot
	if f.kind == kindSummary {
		for _, q := range summaryQuantiles {
			s.quantiles = append(s.quantiles, renderLabels(s.labels, `quantile="`+formatValue(q)+`"`))
		}
		slots = []*slot{
			{name: f.name + "_count", s: s, counter: true},
			{name: f.name + "_sum", s: s, sum: true, counter: true},
		}
	} else {
		slots = []*slot{{name: f.name, s: s, counter: f.kind == kindCounter}}
	}
	for _, sl := range slots {
		sl.key = sl.name + s.base
		if i := r.slotIndex(sl.key); i < len(r.slots) && r.slots[i].key == sl.key {
			panic(fmt.Sprintf("obs: duplicate series %s", sl.key))
		}
	}
	for _, sl := range slots {
		sl.id = len(r.slots)
		i := r.slotIndex(sl.key)
		r.slots = append(r.slots, nil)
		copy(r.slots[i+1:], r.slots[i:])
		r.slots[i] = sl
	}
	i := sort.Search(len(f.series), func(j int) bool { return f.series[j].base >= s.base })
	f.series = append(f.series, nil)
	copy(f.series[i+1:], f.series[i:])
	f.series[i] = s
}

// slotIndex returns the position of key in the sorted slots.
func (r *Registry) slotIndex(key string) int {
	return sort.Search(len(r.slots), func(j int) bool { return r.slots[j].key >= key })
}

// refresh compiles the members that joined dynamic families since the
// last read.
func (r *Registry) refresh() {
	for _, d := range r.dynamic {
		n := d.src.Len()
		for ; d.known < n; d.known++ {
			m := d.src.Member(d.known)
			r.compile(d.fam, &series{labels: m.Labels, value: m.Value, hist: m.Hist, ex: m.Exemplars})
		}
	}
}

// CounterFunc registers a monotonically-increasing value read at export
// time. Registering the same name again with different labels adds a
// series to the family; the same name and labels twice panics.
func (r *Registry) CounterFunc(name, help string, labels map[string]string, fn func() int64) {
	r.compile(r.familyFor(name, help, kindCounter), &series{labels: labels, value: func() float64 { return float64(fn()) }})
}

// GaugeFunc registers an instantaneous value read at export time.
func (r *Registry) GaugeFunc(name, help string, labels map[string]string, fn func() float64) {
	r.compile(r.familyFor(name, help, kindGauge), &series{labels: labels, value: fn})
}

// Histogram registers a live histogram, exported as a Prometheus
// summary (quantiles + _sum + _count).
func (r *Registry) Histogram(name, help string, labels map[string]string, h *sim.Histogram) {
	r.compile(r.familyFor(name, help, kindSummary), &series{labels: labels, hist: h})
}

// CounterMembers registers a dynamic counter family whose members join
// during the run. Calling it again for the same name adds another
// source to the family (one per node in a fleet registry).
func (r *Registry) CounterMembers(name, help string, src Members) {
	r.addMembers(r.familyFor(name, help, kindCounter), src)
}

// GaugeMembers registers a dynamic gauge family.
func (r *Registry) GaugeMembers(name, help string, src Members) {
	r.addMembers(r.familyFor(name, help, kindGauge), src)
}

// HistogramMembers registers a dynamic summary family: per-function
// histograms that only exist once the function has been invoked.
func (r *Registry) HistogramMembers(name, help string, src Members) {
	r.addMembers(r.familyFor(name, help, kindSummary), src)
}

func (r *Registry) addMembers(f *family, src Members) {
	r.dynamic = append(r.dynamic, &dynamic{fam: f, src: src})
}

// summaryQuantiles are the quantiles exported for every histogram.
var summaryQuantiles = []float64{0.5, 0.9, 0.99}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// escapeHelp escapes HELP text as text format 0.0.4 requires:
// backslash and newline only.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// renderLabels returns `{k="v",...}` with sorted keys ("" when empty).
// extra, if non-empty, is appended verbatim as the last pair. Values
// are escaped exactly once (escapeLabel); %q would re-escape the
// backslashes escapeLabel just inserted.
func renderLabels(labels map[string]string, extra string) string {
	var pairs []string
	for k, v := range labels {
		pairs = append(pairs, k+`="`+escapeLabel(v)+`"`)
	}
	sort.Strings(pairs)
	if extra != "" {
		pairs = append(pairs, extra)
	}
	if len(pairs) == 0 {
		return ""
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// Sample is one gathered series value: counters and gauges directly,
// summaries as their _count and _sum. It is what the flight recorder
// snapshots every sampling tick.
type Sample struct {
	Name    string
	Labels  map[string]string
	Key     string // Name plus rendered sorted labels; unique per series
	Value   float64
	Counter bool // monotone — a rate-of-change is meaningful
}

// Gather reads every series in the registry, sorted by Key so repeated
// gathers of the same simulation state are identical.
func (r *Registry) Gather() []Sample {
	r.refresh()
	if len(r.slots) == 0 {
		return nil
	}
	out := make([]Sample, len(r.slots))
	for i, sl := range r.slots {
		out[i] = Sample{Name: sl.name, Labels: sl.s.labels, Key: sl.key, Value: sl.read(), Counter: sl.counter}
	}
	return out
}

// WritePrometheus writes every registered family in Prometheus
// text-format (version 0.0.4). Families and series are sorted, so the
// output for a fixed simulation state is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.refresh()
	var b []byte
	for _, n := range r.names {
		f := r.families[n]
		b = append(b, "# HELP "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, escapeHelp(f.help)...)
		b = append(b, "\n# TYPE "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.kind...)
		b = append(b, '\n')
		for _, s := range f.series {
			if s.hist == nil {
				b = appendFloat(appendKey(b, f.name, "", s.base), s.value())
				continue
			}
			for i, q := range summaryQuantiles {
				b = appendFloat(appendKey(b, f.name, "", s.quantiles[i]), s.hist.Percentile(q*100))
			}
			b = appendFloat(appendKey(b, f.name, "_sum", s.base), s.hist.Sum())
			b = strconv.AppendInt(appendKey(b, f.name, "_count", s.base), int64(s.hist.N()), 10)
			b = append(b, '\n')
			if s.ex != nil {
				if ex := s.ex(); ex != nil {
					b = s.appendBuckets(b, f.name, ex)
				}
			}
		}
	}
	_, err := w.Write(b)
	return err
}

// appendKey appends `name suffix labels ` — a sample line up to its value.
func appendKey(b []byte, name, suffix, labels string) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	b = append(b, labels...)
	return append(b, ' ')
}

// appendFloat appends v and ends the line.
func appendFloat(b []byte, v float64) []byte {
	return append(strconv.AppendFloat(b, v, 'g', -1, 64), '\n')
}

// appendBuckets appends the series' cumulative exemplar bucket lines,
// each annotated with its bucket's representative exemplar.
func (s *series) appendBuckets(b []byte, name string, ex *ExemplarReservoir) []byte {
	if s.lesFor != ex {
		s.les = s.les[:0]
		for _, ub := range ex.bounds {
			s.les = append(s.les, renderLabels(s.labels, `le="`+FormatLe(ub)+`"`))
		}
		s.lesFor = ex
	}
	var cum int64
	for i := range ex.bounds {
		cum += ex.counts[i]
		b = strconv.AppendInt(appendKey(b, name, "_bucket", s.les[i]), cum, 10)
		if e, ok := ex.pick(i); ok {
			b = append(b, ` # {trace_id="`...)
			b = append(b, escapeLabel(e.TraceID)...)
			b = append(b, `"} `...)
			b = strconv.AppendFloat(b, e.Value, 'g', -1, 64)
		}
		b = append(b, '\n')
	}
	return b
}
