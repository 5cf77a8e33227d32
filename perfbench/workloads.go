package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/alert"
	"repro/internal/cluster"
	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Scales shrink the paper's 30-minute traces. One repeat takes 3 to 9
// host seconds on a 2-vCPU x86 VM, long enough that a seed's function
// mix moves allocs_per_inv by under 5%.
const (
	fig17Scale   = 0.2
	nodeObsScale = 0.3
	rackScale    = 0.5
)

// Rack-chaos settings, written in the grammars the public parsers take.
const (
	rackNodes     = 4
	rackHedge     = "delay:400ms"
	rackChaos     = "flaky:rdma:0.02:burst=5"
	rackRateX     = 1.5 // Azure-like per-minute rate multiplier
	rackKeepAlive = time.Second
	rackHotFrac   = 0.4 // share of each image kept in CXL; the rest is on RDMA
	softCapNoEvic = 64 << 30
)

// workloadDef is one benchmark workload: once runs a full repeat of it
// (trace generation, construction, registration, RunTrace) at a seed.
// Why each exists is recorded in BENCHMARK.json and README.md.
type workloadDef struct {
	name string
	once func(seed int64, m *meter) (*repeat, error)
}

var workloads = []workloadDef{
	{"fig17", runFig17},
	{"node-obs", runNodeObs},
	{"rack-chaos", runRackChaos},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func fnNames() []string {
	var out []string
	for _, p := range workload.Table4() {
		out = append(out, p.Name)
	}
	return out
}

func scaled(d time.Duration, s float64) time.Duration { return time.Duration(float64(d) * s) }

// repeat is what one run of a workload leaves behind: the simulated
// rows the output checks compare, the user-facing simulated figures,
// and the systems themselves, kept reachable for the live-heap reading
// and the layer probes.
type repeat struct {
	arrivals int // trace arrivals offered
	failed   int // arrivals settled as error, deadline or redispatch-exhausted
	rows     []string
	tcxl     sim.Histogram // simulated E2E ms of the TrEnv-CXL rows
	peakMem  int64         // simulated peak node memory of the TrEnv-CXL rows
	notes    []string      // fidelity lines, printed once
	counts   counts
	probe    probeTarget
	state    []any
}

// outcomes tallies each arrival's settled outcome by function.
type outcomes struct {
	byFn   map[string]int
	failed int
}

func newOutcomes() *outcomes { return &outcomes{byFn: make(map[string]int)} }

func (o *outcomes) add(fn string, out faas.Outcome) {
	o.byFn[fn]++
	switch out {
	case faas.OutcomeSuccess, faas.OutcomeFallback:
	default:
		o.failed++
	}
}

// settle checks that every arrival of tr settled exactly once and
// returns how many settled as failures.
func (o *outcomes) settle(label string, tr workload.Trace) (int, error) {
	want := tr.CountByFunction()
	for _, fn := range sortedKeys(want, o.byFn) {
		if got, n := o.byFn[fn], want[fn]; got != n {
			return 0, fmt.Errorf("%s: function %s settled %d times for %d arrivals", label, fn, got, n)
		}
	}
	return o.failed, nil
}

func sortedKeys(ms ...map[string]int) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

// registerAll deploys the ten Table 4 functions through register.
func registerAll(m *meter, register func(workload.FunctionProfile) error) error {
	var err error
	m.setup("Register", func() {
		for _, p := range workload.Table4() {
			if err = register(p); err != nil {
				err = fmt.Errorf("register %s: %w", p.Name, err)
				return
			}
		}
	})
	return err
}

func fig17Policies() []faas.Policy {
	return []faas.Policy{
		faas.PolicyFaasd, faas.PolicyCRIU,
		faas.PolicyREAPPlus, faas.PolicyFaaSnapPlus,
		faas.PolicyTrEnvRDMA, faas.PolicyTrEnvCXL,
	}
}

// traceDef is one of Figure 17's traces with its node memory cap.
type traceDef struct {
	name string
	gen  func() workload.Trace
	cap  int64
}

// fig17Traces are Figure 17's W1 bursty trace (64 GB cap) and W2
// diurnal trace (3 GB soft cap) at fig17Scale, drawn from seed.
func fig17Traces(seed int64) []traceDef {
	return []traceDef{
		{"W1", func() workload.Trace {
			cfg := workload.DefaultW1(fnNames())
			cfg.Duration = scaled(cfg.Duration, fig17Scale)
			cfg.BurstGap = scaled(cfg.BurstGap, fig17Scale)
			return workload.W1Bursty(rand.New(rand.NewSource(seed)), cfg)
		}, softCapNoEvic},
		{"W2", func() workload.Trace {
			cfg := workload.DefaultW2(fnNames())
			cfg.Duration = scaled(cfg.Duration, fig17Scale)
			cfg.Period = scaled(cfg.Period, fig17Scale)
			return workload.W2Diurnal(rand.New(rand.NewSource(seed+1)), cfg)
		}, 3 << 30},
	}
}

// runFig17 is the paper's Figure 17: every policy on each of its traces.
func runFig17(seed int64, m *meter) (*repeat, error) {
	r := &repeat{}
	for _, wl := range fig17Traces(seed) {
		var tr workload.Trace
		m.setup("trace/"+wl.name, func() { tr = wl.gen() })
		p99 := map[faas.Policy]map[string]float64{}
		for _, pol := range fig17Policies() {
			label := fmt.Sprintf("fig17/%s/%s", wl.name, pol)
			unit := m.begin(label)
			cfg := faas.DefaultConfig(pol)
			cfg.Seed = seed
			cfg.KeepAlive = scaled(10*time.Minute, fig17Scale)
			cfg.Warmup = scaled(5*time.Minute, fig17Scale)
			cfg.SoftMemCap = wl.cap
			outs := newOutcomes()
			cfg.OnResult = func(res faas.InvocationResult) { outs.add(res.Function, res.Outcome) }
			var pl *faas.Platform
			m.setup("faas.New", func() { pl = faas.New(cfg) })
			if err := registerAll(m, pl.Register); err != nil {
				return nil, fmt.Errorf("%s: %w", label, err)
			}
			m.run("RunTrace", tr.Len(), func() { pl.RunTrace(tr) })
			m.end(unit)
			if m.setupOnly {
				continue
			}
			failed, err := outs.settle(label, tr)
			if err != nil {
				return nil, err
			}
			r.arrivals += tr.Len()
			r.failed += failed
			r.rows = append(r.rows, platformRows(label, pl)...)
			r.counts.addPlatform(pl)
			r.counts.addEngine(pl.Engine())
			r.counts.addGathered(platformRegistry(pl))
			r.state = append(r.state, pl)
			p99[pol] = perFnP99(pl)
			if pol == faas.PolicyTrEnvCXL {
				r.tcxl.Merge(&pl.Metrics().All.E2E)
				r.peakMem = max(r.peakMem, pl.PeakMemory())
				if wl.name == "W1" {
					r.probe = probeTarget{platform: pl}
				}
			}
		}
		r.notes = append(r.notes, fidelityLine(wl.name, p99))
	}
	return r, nil
}

func perFnP99(pl *faas.Platform) map[string]float64 {
	out := map[string]float64{}
	for _, fn := range fnNames() {
		if fm := pl.Metrics().Fn(fn); fm.E2E.N() > 0 {
			out[fn] = fm.E2E.Percentile(99)
		}
	}
	return out
}

// nodeObsConfig is the TrEnv-CXL node both node-obs legs run.
func nodeObsConfig(seed int64) faas.Config {
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	cfg.Seed = seed
	cfg.KeepAlive = scaled(10*time.Minute, nodeObsScale)
	cfg.Warmup = scaled(5*time.Minute, nodeObsScale)
	cfg.SoftMemCap = softCapNoEvic
	return cfg
}

func azureTrace(seed int64, scale, rateX float64) workload.Trace {
	cfg := workload.AzureConfig(fnNames())
	cfg.Duration = scaled(cfg.Duration, scale)
	cfg.MeanPerMin *= rateX
	// Stationary: no on/off runs and no burst minutes. At a few
	// simulated minutes those two processes decide most of a trace's
	// volume and function mix, so a run would measure its seed's mix
	// rather than the simulator; popularity skew and Poisson arrivals
	// stay.
	cfg.ActiveMinutes = 0
	cfg.BurstProb = 0
	return workload.Industrial(rand.New(rand.NewSource(seed+2)), cfg)
}

// runNodeObs runs one TrEnv-CXL node with the full observability stack
// trenvd runs: tracer, metrics registry, flight recorder at its default
// interval, and the default alert rules.
func runNodeObs(seed int64, m *meter) (*repeat, error) { return nodeRun(seed, m, true) }

// nodeRun is node-obs with (withObs) or without the observability
// stack; the output check compares the two legs' simulated rows.
func nodeRun(seed int64, m *meter, withObs bool) (*repeat, error) {
	var tr workload.Trace
	m.setup("trace/azure", func() { tr = azureTrace(seed, nodeObsScale, 1) })
	label := "node-obs/trenv-cxl"
	unit := m.begin(label)
	cfg := nodeObsConfig(seed)
	outs := newOutcomes()
	cfg.OnResult = func(res faas.InvocationResult) { outs.add(res.Function, res.Outcome) }
	var tracer *obs.Tracer
	if withObs {
		tracer = obs.NewTracer(0)
		cfg.Tracer = tracer
	}
	var pl *faas.Platform
	m.setup("faas.New", func() { pl = faas.New(cfg) })
	if err := registerAll(m, pl.Register); err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	target := probeTarget{platform: pl}
	if withObs {
		m.setup("obs.attach", func() {
			reg := obs.NewRegistry()
			pl.RegisterMetrics(reg)
			obs.RegisterTracerDrops(reg, nil, tracer)
			obs.RegisterBuildInfo(reg, nil)
			rec := obs.NewRecorder(reg, 0)
			pl.AttachRecorder(rec, 0)
			ae := alert.New(alert.DefaultRules())
			ae.RegisterMetrics(reg, nil)
			pl.AttachAlerts(ae)
			target.reg, target.rec, target.tracer = reg, rec, tracer
		})
	}
	m.run("RunTrace", tr.Len(), func() { pl.RunTrace(tr) })
	m.end(unit)
	if m.setupOnly {
		return &repeat{}, nil
	}
	failed, err := outs.settle(label, tr)
	if err != nil {
		return nil, err
	}
	r := &repeat{arrivals: tr.Len(), failed: failed, probe: target}
	r.rows = platformRows(label, pl)
	r.counts.addPlatform(pl)
	r.counts.addEngine(pl.Engine())
	r.counts.addGathered(platformRegistry(pl))
	r.counts.addObs(target)
	r.tcxl.Merge(&pl.Metrics().All.E2E)
	r.peakMem = pl.PeakMemory()
	r.state = append(r.state, pl, target)
	return r, nil
}

// runRackChaos runs a 4-node rack sharing one CXL pool under flaky
// RDMA, with working-set prefetch and fixed-delay hedging.
func runRackChaos(seed int64, m *meter) (*repeat, error) {
	var tr workload.Trace
	m.setup("trace/azure-dense", func() { tr = azureTrace(seed, rackScale, rackRateX) })
	hp, err := cluster.ParseHedgePolicy(rackHedge)
	if err != nil {
		return nil, err
	}
	sc, err := fault.ParseSpec(rackChaos)
	if err != nil {
		return nil, err
	}
	label := "rack-chaos"
	unit := m.begin(label)
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	cfg.Seed = seed
	cfg.KeepAlive = rackKeepAlive

	cfg.Warmup = scaled(5*time.Minute, rackScale)
	cfg.SoftMemCap = softCapNoEvic
	cfg.HotFraction = rackHotFrac
	cfg.Prefetch = true
	// RDMA-scale retries with a budget that outlasts chained flaky
	// bursts, so chaos slows fetches but fails none.
	cfg.Retry = &mem.RetryPolicy{MaxAttempts: 16, Deadline: 200 * time.Microsecond, BackoffBase: 100 * time.Microsecond, BackoffMax: 2 * time.Millisecond}
	var c *cluster.Cluster
	m.setup("cluster.New", func() { c, err = cluster.New(rackNodes, cfg) })
	if err != nil {
		return nil, err
	}
	if err := registerAll(m, c.Register); err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	r := &repeat{}
	outs := newOutcomes()
	c.SetHedgePolicy(hp)
	c.SetSettleHook(func(fn string, latency time.Duration, res faas.InvocationResult) {
		outs.add(fn, res.Outcome)
		// Like the nodes' own histograms, skip arrivals inside warm-up.
		if c.Engine().Now()-latency >= cfg.Warmup {
			r.tcxl.AddDuration(latency)
		}
	})
	c.AttachChaos(fault.NewInjector(c.Engine(), seed, sc))
	m.run("RunTrace", tr.Len(), func() { c.RunTrace(tr) })
	m.end(unit)
	if m.setupOnly {
		return r, nil
	}
	failed, err := outs.settle(label, tr)
	if err != nil {
		return nil, err
	}
	if w := c.Wedged(); w != 0 {
		return nil, fmt.Errorf("%s: %d invocations wedged", label, w)
	}
	r.arrivals, r.failed = tr.Len(), failed
	for _, n := range c.Nodes() {
		r.rows = append(r.rows, platformRows(label+"/"+n.NodeName(), n)...)
		r.counts.addPlatform(n)
	}
	r.rows = append(r.rows, fmt.Sprintf("%s settle n=%d p50=%s p99=%s mean=%s hedged=%d wins=%d skips=%d cancelled=%d redispatched=%d exhausted=%d",
		label, r.tcxl.N(), g(r.tcxl.Percentile(50)), g(r.tcxl.Percentile(99)), g(r.tcxl.Mean()),
		c.Hedged(), c.HedgeWins(), c.HedgeSkips(), c.Cancelled(), c.Redispatched(), c.RedispatchExhausted()))
	r.counts.addCluster(c)
	r.counts.addEngine(c.Engine())
	r.counts.addGathered(clusterRegistry(c))
	r.peakMem = c.TotalPeakMemory()
	r.probe = probeTarget{platform: c.Nodes()[0], cluster: c}
	r.state = append(r.state, c)
	return r, nil
}
