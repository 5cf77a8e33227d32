package obs

import (
	"math"
	"strconv"
)

// Exemplar links one observed histogram value to the trace that
// produced it, so a tail bucket on /metrics points at the exact
// invocation's span tree.
type Exemplar struct {
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id"`
}

// DefaultExemplarBuckets are the millisecond upper bounds used for
// latency exemplar reservoirs (+Inf is implicit).
var DefaultExemplarBuckets = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// ExemplarReservoir keeps, per histogram bucket, a bounded reservoir of
// (value, TraceID) exemplars. Sampling is Algorithm R driven by a
// deterministic per-bucket xorshift stream, so a fixed seed yields the
// exact same exemplars across runs. Not safe for concurrent use; the
// simulation observes from one goroutine.
type ExemplarReservoir struct {
	bounds []float64 // ascending upper bounds; +Inf appended
	counts []int64   // per-bucket observation counts
	res    [][]Exemplar
	seen   []int64  // per-bucket observations, drives Algorithm R
	rng    []uint64 // per-bucket xorshift64 state
	cap    int
}

// DefaultExemplarsPerBucket bounds each bucket's reservoir.
const DefaultExemplarsPerBucket = 4

// NewExemplarReservoir builds a reservoir over the given ascending
// upper bounds (nil means DefaultExemplarBuckets; a +Inf bucket is
// always appended) keeping at most perBucket exemplars per bucket
// (<= 0 means DefaultExemplarsPerBucket). The seed string namespaces
// the deterministic sampling streams, so distinct series replace
// different slots.
func NewExemplarReservoir(bounds []float64, perBucket int, seed string) *ExemplarReservoir {
	if bounds == nil {
		bounds = DefaultExemplarBuckets
	}
	if perBucket <= 0 {
		perBucket = DefaultExemplarsPerBucket
	}
	b := append(append([]float64(nil), bounds...), math.Inf(1))
	n := len(b)
	r := &ExemplarReservoir{
		bounds: b,
		counts: make([]int64, n),
		res:    make([][]Exemplar, n),
		seen:   make([]int64, n),
		rng:    make([]uint64, n),
		cap:    perBucket,
	}
	for i := range r.rng {
		r.rng[i] = fnv1a64(seed, "bucket", strconv.Itoa(i)) | 1 // xorshift state must be non-zero
	}
	return r
}

// next advances bucket i's xorshift64 stream.
func (r *ExemplarReservoir) next(i int) uint64 {
	x := r.rng[i]
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.rng[i] = x
	return x
}

// Observe records value into its bucket's count and reservoir.
func (r *ExemplarReservoir) Observe(value float64, traceID string) {
	i := 0
	for i < len(r.bounds)-1 && value > r.bounds[i] {
		i++
	}
	r.counts[i]++
	r.seen[i]++
	if len(r.res[i]) < r.cap {
		r.res[i] = append(r.res[i], Exemplar{Value: value, TraceID: traceID})
		return
	}
	// Algorithm R: replace a random slot with probability cap/seen.
	if j := r.next(i) % uint64(r.seen[i]); j < uint64(r.cap) {
		r.res[i][j] = Exemplar{Value: value, TraceID: traceID}
	}
}

// BucketExemplars is one bucket's state: its upper bound, how many
// observations landed in it (non-cumulative), and the retained
// exemplars in reservoir order.
type BucketExemplars struct {
	UpperBound float64    `json:"le"`
	Count      int64      `json:"count"`
	Exemplars  []Exemplar `json:"exemplars,omitempty"`
}

// Snapshot returns every bucket in ascending upper-bound order.
func (r *ExemplarReservoir) Snapshot() []BucketExemplars {
	out := make([]BucketExemplars, len(r.bounds))
	for i := range r.bounds {
		out[i] = BucketExemplars{
			UpperBound: r.bounds[i],
			Count:      r.counts[i],
			Exemplars:  append([]Exemplar(nil), r.res[i]...),
		}
	}
	return out
}

// Pick returns the bucket's representative exemplar for a single
// OpenMetrics bucket line: the retained exemplar with the largest
// value (ties: first retained), or ok=false for an empty bucket.
func (b BucketExemplars) Pick() (Exemplar, bool) { return pickExemplar(b.Exemplars) }

// pick is Pick on bucket i's live reservoir, without a snapshot copy.
func (r *ExemplarReservoir) pick(i int) (Exemplar, bool) { return pickExemplar(r.res[i]) }

func pickExemplar(es []Exemplar) (Exemplar, bool) {
	if len(es) == 0 {
		return Exemplar{}, false
	}
	best := es[0]
	for _, e := range es[1:] {
		if e.Value > best.Value {
			best = e
		}
	}
	return best, true
}

// FormatLe renders a bucket upper bound the way Prometheus spells it
// ("+Inf" for the overflow bucket).
func FormatLe(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}
