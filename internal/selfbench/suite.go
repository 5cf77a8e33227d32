package selfbench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Options configure a canonical suite run. The same (Seed, Scale) pair
// always simulates the same work, so two artifacts are comparable
// exactly when their options match — bench-compare.sh enforces this.
type Options struct {
	Seed  int64
	Scale float64 // workload scale, 1.0 = paper scale (CI uses 0.1)
}

func (o Options) normalize() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	return o
}

func (o Options) dur(d time.Duration) time.Duration {
	return time.Duration(float64(d) * o.Scale)
}

func (o Options) count(n int) int {
	c := int(float64(n) * o.Scale)
	if c < 1 {
		c = 1
	}
	return c
}

// Aggregate carries the whole-suite readings bench-compare.sh gates
// on. Per-second figures divide total work by total wall time across
// every run; ObsOverheadPct comes from the paired obs-on/obs-off probe.
type Aggregate struct {
	EventsPerSec      float64 `json:"events_per_sec"`
	InvocationsPerSec float64 `json:"invocations_per_sec"`
	SpansPerSec       float64 `json:"spans_per_sec"`
	AllocsPerEvent    float64 `json:"allocs_per_event"`
	BytesPerEvent     float64 `json:"bytes_per_event"`
	WallMSPerSimSec   float64 `json:"wall_ms_per_sim_sec"`
	ObsOverheadPct    float64 `json:"obs_overhead_pct"`
}

// Report is the schema-stable artifact `trenv-bench -selfbench` emits.
// Field order is part of the schema: the aggregate block precedes the
// per-run list so line-oriented tooling (bench-compare.sh) can read
// the gated fields without a JSON parser.
type Report struct {
	Schema     string    `json:"schema"`
	GoVersion  string    `json:"go_version"`
	GOOS       string    `json:"goos"`
	GOARCH     string    `json:"goarch"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Seed       int64     `json:"seed"`
	Scale      float64   `json:"scale"`
	Aggregate  Aggregate `json:"aggregate"`
	Runs       []Result  `json:"runs"`
}

// WriteJSON writes the report with stable indentation and field order.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Summary renders human-readable lines for stdout.
func (r *Report) Summary() []string {
	out := []string{fmt.Sprintf("selfbench %s seed=%d scale=%g %s %s/%s gomaxprocs=%d",
		r.Schema, r.Seed, r.Scale, r.GoVersion, r.GOOS, r.GOARCH, r.GOMAXPROCS)}
	for _, run := range r.Runs {
		out = append(out, fmt.Sprintf(
			"%-16s %9d events %7d inv %8d spans in %6.3fs wall → %10.0f events/s %8.1f inv/s %6.1f allocs/event",
			run.Name, run.Events, run.Invocations, run.Spans, run.WallSeconds,
			run.EventsPerSec, run.InvocationsPerSec, run.AllocsPerEvent))
	}
	out = append(out, fmt.Sprintf(
		"aggregate        %10.0f events/s %8.1f inv/s %6.1f allocs/event %8.1f wall-ms/sim-s obs-overhead %+.1f%%",
		r.Aggregate.EventsPerSec, r.Aggregate.InvocationsPerSec,
		r.Aggregate.AllocsPerEvent, r.Aggregate.WallMSPerSimSec,
		r.Aggregate.ObsOverheadPct))
	return out
}

// RunSuite executes the canonical self-benchmark suite:
//
//   - engine-hotloop: the bare discrete-event engine, no platform on
//     top — raw events/sec and allocs/event of the scheduler itself.
//   - w1-obs-off: a single TrEnv-CXL node running the W1 bursty trace
//     with every observability layer detached.
//   - w1-obs-on: the identical seeded workload with tracer, metrics
//     registry, and flight recorder attached — the overhead probe's
//     second leg.
//   - cluster-azure: a 4-node rack sharing one CXL pool under the
//     Azure-like industrial trace — cross-node invocation throughput.
//
// Wall-clock readings are host-dependent by definition; the Counts in
// each run are deterministic per (Seed, Scale).
func RunSuite(o Options) *Report {
	o = o.normalize()
	rep := &Report{
		Schema:     Schema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       o.Seed,
		Scale:      o.Scale,
	}

	hotloop := Measure("engine-hotloop", o.Seed, func() Counts { return engineHotloop(o) })
	obsOff := Measure("w1-obs-off", o.Seed, func() Counts { return w1Node(o, false) })
	obsOn := Measure("w1-obs-on", o.Seed, func() Counts { return w1Node(o, true) })
	clusterRun := Measure("cluster-azure", o.Seed, func() Counts { return clusterAzure(o) })
	rep.Runs = []Result{hotloop, obsOff, obsOn, clusterRun}

	var events, invocations, spans int64
	var wall, sim, allocs, bytes float64
	for _, r := range rep.Runs {
		events += r.Events
		invocations += r.Invocations
		spans += r.Spans
		wall += r.WallSeconds
		sim += r.SimSeconds
		allocs += float64(r.Allocs)
		bytes += float64(r.AllocBytes)
	}
	wallDur := time.Duration(wall * float64(time.Second))
	rep.Aggregate = Aggregate{
		EventsPerSec:      Rate(float64(events), wallDur),
		InvocationsPerSec: Rate(float64(invocations), wallDur),
		SpansPerSec:       Rate(float64(spans), wallDur),
		AllocsPerEvent:    perUnit(allocs, events),
		BytesPerEvent:     perUnit(bytes, events),
		ObsOverheadPct:    overheadPct(obsOn.WallSeconds, obsOff.WallSeconds),
	}
	if sim > 0 {
		rep.Aggregate.WallMSPerSimSec = wall * 1000 / sim
	}
	return rep
}

// overheadPct reports how much slower the obs-on leg ran than the
// obs-off leg, as a percentage of the obs-off wall time (0 when the
// baseline collapsed to zero). Negative values mean measurement noise
// outweighed the overhead.
func overheadPct(withObs, without float64) float64 {
	if without <= 0 {
		return 0
	}
	return (withObs - without) / without * 100
}

// engineHotloop stresses the bare scheduler: a fan of processes
// sleeping pseudo-random intervals plus callback churn, no platform
// state at all. Event count scales with Options.Scale.
func engineHotloop(o Options) Counts {
	const procs = 16
	iters := o.count(60_000)
	eng := sim.NewEngine(o.Seed)
	for i := 0; i < procs; i++ {
		eng.Go(fmt.Sprintf("hot-%d", i), func(p *sim.Proc) {
			for j := 0; j < iters; j++ {
				p.Sleep(time.Duration(1+p.Rand().Intn(50)) * time.Microsecond)
			}
		})
	}
	for i := 0; i < iters; i++ {
		eng.After(time.Duration(i)*time.Microsecond, func() {})
	}
	eng.Run()
	return Counts{Events: eng.Events(), SimTime: eng.Now()}
}

func fnNames() []string {
	var out []string
	for _, p := range workload.Table4() {
		out = append(out, p.Name)
	}
	return out
}

// w1Node runs the W1 bursty trace on one TrEnv-CXL node. With withObs
// it attaches the full observability stack (tracer, registry, flight
// recorder) — the same seeded workload either way, so the wall-time
// difference between the two legs is the observability overhead.
func w1Node(o Options, withObs bool) Counts {
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	cfg.Seed = o.Seed
	cfg.KeepAlive = o.dur(10 * time.Minute)
	var tracer *obs.Tracer
	if withObs {
		tracer = obs.NewTracer(0)
		cfg.Tracer = tracer
	}
	pl := faas.New(cfg)
	for _, p := range workload.Table4() {
		if err := pl.Register(p); err != nil {
			panic(fmt.Sprintf("selfbench: register %s: %v", p.Name, err))
		}
	}
	if withObs {
		reg := obs.NewRegistry()
		pl.RegisterMetrics(reg)
		obs.RegisterBuildInfo(reg, nil)
		pl.AttachRecorder(obs.NewRecorder(reg, 0), 0)
	}
	w1 := workload.DefaultW1(fnNames())
	w1.Duration = o.dur(w1.Duration)
	w1.BurstGap = o.dur(w1.BurstGap)
	pl.RunTrace(workload.W1Bursty(rand.New(rand.NewSource(o.Seed)), w1))
	return Counts{
		Events:      pl.Engine().Events(),
		Invocations: pl.InvocationsStarted(),
		Spans:       countSpans(tracer),
		SimTime:     pl.Engine().Now(),
	}
}

// clusterAzure runs the Azure-like industrial trace over a 4-node rack
// sharing one CXL pool: the cross-node dispatch + remote-fetch path.
func clusterAzure(o Options) Counts {
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	cfg.Seed = o.Seed
	cfg.KeepAlive = o.dur(10 * time.Minute)
	c, err := cluster.New(4, cfg)
	if err != nil {
		panic(fmt.Sprintf("selfbench: cluster: %v", err))
	}
	for _, p := range workload.Table4() {
		if err := c.Register(p); err != nil {
			panic(fmt.Sprintf("selfbench: register %s: %v", p.Name, err))
		}
	}
	az := workload.AzureConfig(fnNames())
	az.Duration = o.dur(az.Duration)
	c.RunTrace(workload.Industrial(rand.New(rand.NewSource(o.Seed+2)), az))
	var started int64
	for _, n := range c.Nodes() {
		started += n.InvocationsStarted()
	}
	return Counts{
		Events:      c.Engine().Events(),
		Invocations: started,
		SimTime:     c.Engine().Now(),
	}
}

// countSpans walks every retained root and counts all nodes, children
// included (0 for a nil tracer).
func countSpans(t *obs.Tracer) int64 {
	if t == nil {
		return 0
	}
	var n int64
	for _, root := range t.Spans() {
		root.Walk(func(int, *obs.Span) { n++ })
	}
	return n
}
