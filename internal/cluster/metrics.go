package cluster

import (
	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// registerBreakers publishes one breaker-state gauge and opens counter
// per node; breakers[i] belongs to nodes[i].
func registerBreakers(reg *obs.Registry, breakers []*fault.Breaker, nodes []*faas.Platform) {
	for i, b := range breakers {
		b := b
		labels := map[string]string{"node": nodes[i].NodeName()}
		reg.GaugeFunc("trenv_breaker_state", "Circuit-breaker position (0 closed, 1 open, 2 half-open).", labels,
			func() float64 { return float64(b.State()) })
		reg.CounterFunc("trenv_breaker_opens_total", "Circuit-breaker trips to open.", labels, b.Opens)
	}
}

// registerFleetAggregates publishes the cluster-wide roll-up series: each
// trenv_cluster_* value is, by construction, the sum (or count) over the
// same nodes whose per-node series carry node="..." labels in the same
// registry, so aggregate == sum(node series) holds at every scrape.
func registerFleetAggregates(reg *obs.Registry, nodes []*faas.Platform, alive func() float64) {
	sum := func(sel func(*faas.Platform) int64) func() int64 {
		return func() int64 {
			var n int64
			for _, nd := range nodes {
				n += sel(nd)
			}
			return n
		}
	}
	counters := []struct {
		name, help string
		sel        func(*faas.Platform) int64
	}{
		{"trenv_cluster_invocations_total", "Recorded invocations summed across all nodes.",
			func(p *faas.Platform) int64 { return int64(p.Metrics().Invocations()) }},
		{"trenv_cluster_warm_hits_total", "Warm hits summed across all nodes.",
			func(p *faas.Platform) int64 { return p.Metrics().WarmHits.Value() }},
		{"trenv_cluster_cold_starts_total", "Cold starts summed across all nodes.",
			func(p *faas.Platform) int64 { return p.Metrics().ColdStarts.Value() }},
		{"trenv_cluster_errors_total", "Failed invocations summed across all nodes.",
			func(p *faas.Platform) int64 { return p.Metrics().Errors.Value() }},
		{"trenv_cluster_minor_faults_total", "Minor page faults summed across all nodes.",
			func(p *faas.Platform) int64 { return p.FaultStats().MinorFaults }},
		{"trenv_cluster_major_faults_total", "Major page faults summed across all nodes.",
			func(p *faas.Platform) int64 { return p.FaultStats().MajorFaults }},
		{"trenv_cluster_cow_copies_total", "CoW page copies summed across all nodes.",
			func(p *faas.Platform) int64 { return p.FaultStats().CowPages }},
		{"trenv_cluster_pages_fetched_total", "Remotely fetched pages summed across all nodes.",
			func(p *faas.Platform) int64 { return p.FaultStats().FetchedPages }},
	}
	for _, c := range counters {
		reg.CounterFunc(c.name, c.help, nil, sum(c.sel))
	}
	reg.GaugeFunc("trenv_cluster_mem_used_bytes", "Node DRAM in use summed across all nodes.", nil,
		func() float64 {
			var n int64
			for _, nd := range nodes {
				n += nd.UsedMemory()
			}
			return float64(n)
		})
	reg.GaugeFunc("trenv_cluster_mem_peak_bytes", "Sum of the nodes' DRAM high-water marks.", nil,
		func() float64 {
			var n int64
			for _, nd := range nodes {
				n += nd.PeakMemory()
			}
			return float64(n)
		})
	reg.GaugeFunc("trenv_cluster_nodes_alive", "Nodes currently in rotation.", nil, alive)
}

// registerHedger publishes the dispatch-layer counters: crash
// re-dispatch, hedging, cancellation, and exhaustion.
func registerHedger(reg *obs.Registry, h *hedger) {
	counters := []struct {
		name, help string
		c          *sim.Counter
	}{
		{"trenv_redispatched_total", "Crash-aborted invocations re-dispatched to surviving nodes.", &h.redispatched},
		{"trenv_hedges_total", "Extra attempts launched by the hedge policy.", &h.hedged},
		{"trenv_hedge_wins_total", "Hedge races settled by a non-primary attempt.", &h.hedgeWins},
		{"trenv_hedge_skips_total", "Hedges skipped for lack of a second healthy node.", &h.hedgeSkips},
		{"trenv_hedge_cancelled_total", "Losing attempts cooperatively cancelled by the dispatcher.", &h.cancelled},
		{"trenv_redispatch_exhausted_total", "Invocations abandoned after exhausting their re-dispatch budget.", &h.exhausted},
	}
	for _, c := range counters {
		reg.CounterFunc(c.name, c.help, nil, c.c.Value)
	}
}

// RegisterMetrics publishes the cluster into reg: every node's full
// metric surface under node="<name>" labels, each rack's CXL pool and
// template registry under scope="rack", and trenv_cluster_* aggregates
// that always equal the sum of the per-node series. One rack adds
// trenv_cluster_dedup_factor. Several racks add rack="r<i>" labels to
// the node and rack series, the inter-rack fabric under
// scope="fabric", per-rack invocation roll-ups, and the spillover
// counter.
func (c *Cluster) RegisterMetrics(reg *obs.Registry) {
	multi := c.fabric != nil
	for ri, rk := range c.racks {
		rackLabels := map[string]string{"scope": "rack"}
		if multi {
			rackLabels["rack"] = c.rackName(ri)
		}
		for _, node := range rk.nodes {
			labels := map[string]string{"node": node.NodeName()}
			if multi {
				labels["rack"] = c.rackName(ri)
			}
			node.RegisterMetricsLabeled(reg, labels)
		}
		rk.cxl.RegisterMetricsLabeled(reg, rackLabels)
		rk.store.Registry().RegisterMetrics(reg, rackLabels)
	}
	if multi {
		fabric := map[string]string{"scope": "fabric"}
		c.fabric.RegisterMetricsLabeled(reg, fabric)
		c.fabricStore.Registry().RegisterMetrics(reg, fabric)
		reg.CounterSetFunc("trenv_rack_invocations_total", "Recorded invocations summed per rack.",
			func() []obs.LabeledValue {
				out := make([]obs.LabeledValue, 0, len(c.racks))
				for ri, rk := range c.racks {
					var n int64
					for _, node := range rk.nodes {
						n += int64(node.Metrics().Invocations())
					}
					out = append(out, obs.LabeledValue{
						Labels: map[string]string{"rack": c.rackName(ri)},
						Value:  float64(n),
					})
				}
				return out
			})
	}
	registerFleetAggregates(reg, c.nodes, func() float64 { return float64(c.alive()) })
	if multi {
		reg.CounterFunc("trenv_cluster_spillovers_total", "Invocations dispatched off their home rack.", nil,
			c.spillovers.Value)
	} else {
		reg.GaugeFunc("trenv_cluster_dedup_factor", "Logical/unique bytes for the rack's consolidated images.",
			map[string]string{"scope": "rack"}, c.DedupFactor)
	}
	registerBreakers(reg, c.breakers, c.nodes)
	registerHedger(reg, c.hedge)
	if c.chaos != nil {
		c.chaos.RegisterMetrics(reg, nil)
	}
}
