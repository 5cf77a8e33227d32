package main

import (
	"io"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/faas"
	"repro/internal/mem"
	"repro/internal/mmtemplate"
	"repro/internal/obs"
	"repro/internal/pagetable"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// counts is the work each layer did in one repeat, read through the
// layers' public accessors after RunTrace returns.
type counts struct {
	events     int64 // sim: scheduler events executed
	started    int64 // faas: invocations started, warm-up included
	recorded   int64 // faas: invocations completed after warm-up
	faults     pagetable.Stats
	warm       int64
	evictions  int64
	queued     int64
	restores   int64
	repurposes int64
	coldStarts int64
	pfHits     int64
	pfMisses   int64
	startup    sim.Histogram // TrEnv-CXL rows, ms
	exec       sim.Histogram // TrEnv-CXL rows, ms

	// Gathered from each system's metric registry after the run.
	poolFetches int64
	batchPages  int64
	cliffs      int64
	attaches    int64
	templates   float64
	attached    float64 // sum over registries of sharing factor x templates

	hedged, hedgeWins, redispatched, wedged int64
	spans, samples                          int64
}

// addPlatform adds one node's counters. Start-path counters cover only
// invocations after warm-up, like recorded; fault traffic covers all of
// them, like started. Nodes of a rack share an engine, so engine events
// are added by the caller via addEngine.
func (c *counts) addPlatform(pl *faas.Platform) {
	m := pl.Metrics()
	c.started += pl.InvocationsStarted()
	c.recorded += int64(m.Invocations())
	fs := pl.FaultStats()
	c.faults.MinorFaults += fs.MinorFaults
	c.faults.MajorFaults += fs.MajorFaults
	c.faults.CowPages += fs.CowPages
	c.faults.DirectAccess += fs.DirectAccess
	c.faults.PrefetchWaitNs += fs.PrefetchWaitNs
	c.warm += m.WarmHits.Value()
	c.evictions += m.Evictions.Value()
	c.queued += m.Queued.Value()
	c.restores += m.Restores.Value()
	c.repurposes += m.Repurposes.Value()
	c.coldStarts += m.ColdStarts.Value()
	c.pfHits += m.PrefetchHits.Value()
	c.pfMisses += m.PrefetchMisses.Value()
	if pl.Policy() == faas.PolicyTrEnvCXL {
		c.startup.Merge(&m.All.Startup)
		c.exec.Merge(&m.All.Exec)
	}
}

func (c *counts) addEngine(e *sim.Engine) { c.events += e.Events() }

// addGathered sums the pool and template series of a registry the
// system was registered into after its run.
func (c *counts) addGathered(reg *obs.Registry) {
	var sharing, templates float64
	for _, s := range reg.Gather() {
		switch s.Name {
		case "trenv_pool_fetches_total":
			c.poolFetches += int64(s.Value)
		case "trenv_pool_batch_pages_total":
			c.batchPages += int64(s.Value)
		case "trenv_pool_fetch_cliffs_total":
			c.cliffs += int64(s.Value)
		case "trenv_template_attaches_total":
			c.attaches += int64(s.Value)
		case "trenv_templates":
			templates += s.Value
		case "trenv_template_sharing_factor":
			sharing += s.Value
		}
	}
	c.templates += templates
	c.attached += sharing * templates
}

func (c *counts) addCluster(cl *cluster.Cluster) {
	c.hedged += cl.Hedged()
	c.hedgeWins += cl.HedgeWins()
	c.redispatched += cl.Redispatched()
	c.wedged += cl.Wedged()
}

func (c *counts) addObs(t probeTarget) {
	if t.tracer != nil {
		c.spans += int64(t.tracer.Len()) + t.tracer.Dropped()
	}
	if t.rec != nil {
		c.samples += t.rec.Samples()
	}
}

// platformRegistry and clusterRegistry register a finished system's
// metric surface into a fresh registry, for counting and probing.
func platformRegistry(pl *faas.Platform) *obs.Registry {
	reg := obs.NewRegistry()
	pl.RegisterMetrics(reg)
	return reg
}

func clusterRegistry(c *cluster.Cluster) *obs.Registry {
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	return reg
}

// probeTarget is the registered state a repeat's layer probes call
// into: a TrEnv-CXL node's templates, and the registry (the run's own
// when observability was attached).
type probeTarget struct {
	platform *faas.Platform
	cluster  *cluster.Cluster
	reg      *obs.Registry
	rec      *obs.Recorder
	tracer   *obs.Tracer
}

func (t probeTarget) registry() *obs.Registry {
	switch {
	case t.reg != nil:
		return t.reg
	case t.cluster != nil:
		return clusterRegistry(t.cluster)
	default:
		return platformRegistry(t.platform)
	}
}

// probes are unit costs timed by calling lower layers directly.
type probes struct {
	attachUs        float64 // snapshot.RestoreTemplate per function
	accessNsPerPage float64 // AddressSpace.Access per page touched
	gatherUs        float64 // Registry.Gather per call
	scrapeUs        float64 // Registry.WritePrometheus per call
}

// minProbeRounds is the least number of rounds each probe averages.
const minProbeRounds = 5

// runProbes times template restores and page accesses against the
// node's registered images, charging new pages to a scratch tracker,
// then gathers and scrapes the registry. Each probe repeats for at
// least minProbeRounds rounds and until budget is spent.
func runProbes(t probeTarget, seed int64, m *meter, budget time.Duration) probes {
	var p probes
	store := t.platform.Store()
	rng := rand.New(rand.NewSource(seed))
	lat, attach, costs := mem.DefaultLatencyModel(), mmtemplate.DefaultCostModel(), snapshot.DefaultCosts()
	var attachTime, accessTime time.Duration
	var restores, pages int
	id := m.begin("probe/RestoreTemplate+Access")
	for round, t0 := 0, time.Now(); round < minProbeRounds || time.Since(t0) < budget/2; round++ {
		for _, prof := range workload.Table4() {
			img := store.Image(prof.Name)
			if img == nil {
				continue
			}
			scratch := mem.NewTracker("probe", 0)
			a0 := time.Now()
			res, err := snapshot.RestoreTemplate(img, scratch, lat, attach, costs)
			attachTime += time.Since(a0)
			if err != nil {
				continue
			}
			restores++
			for _, a := range prof.Accesses() {
				as, v := res.Region(a.Region)
				if v == nil {
					continue
				}
				a0 := time.Now()
				_, err := as.Access(rng, v, a.ReadPages, a.WritePages)
				accessTime += time.Since(a0)
				if err == nil {
					pages += max(a.ReadPages, a.WritePages)
				}
			}
			res.ReleaseAll()
		}
	}
	m.end(id)
	if restores > 0 {
		p.attachUs = float64(attachTime) / float64(time.Microsecond) / float64(restores)
	}
	if pages > 0 {
		p.accessNsPerPage = float64(accessTime) / float64(pages)
	}

	reg := t.registry()
	id = m.begin("probe/Gather+WritePrometheus")
	var gatherTime, scrapeTime time.Duration
	var calls int
	for t0 := time.Now(); calls < minProbeRounds || time.Since(t0) < budget/2; calls++ {
		a0 := time.Now()
		reg.Gather()
		a1 := time.Now()
		_ = reg.WritePrometheus(io.Discard) // io.Discard never fails
		scrapeTime += time.Since(a1)
		gatherTime += a1.Sub(a0)
	}
	m.end(id)
	p.gatherUs = float64(gatherTime) / float64(time.Microsecond) / float64(calls)
	p.scrapeUs = float64(scrapeTime) / float64(time.Microsecond) / float64(calls)
	return p
}
