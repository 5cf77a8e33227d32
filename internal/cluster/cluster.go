// Package cluster composes faas nodes into racks around pooled memory —
// the paper's deployment model (§8.2). A rack is a set of nodes sharing
// one CXL pool: a consolidated image and its mm-templates exist once per
// rack, because pool offsets are machine independent, and every node's
// instances attach to the same read-only pages. A larger cluster is a
// list of such racks: each function's image is homed in one rack's pool,
// and the other racks' nodes attach templates whose PTEs point across
// the inter-rack RDMA fabric at the same data — byte-addressable direct
// reads at home, lazy RDMA fetches on spillover, the T-CXL vs T-RDMA
// trade within one cluster.
package cluster

import (
	"fmt"
	"time"

	"repro/internal/alert"
	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/mmtemplate"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// Cluster is a list of racks, each a set of nodes sharing one CXL pool.
// New builds the one-rack case; NewMultiRack builds several racks joined
// by an RDMA fabric.
type Cluster struct {
	eng   *sim.Engine
	racks []*rack
	nodes []*faas.Platform // every node, rack-major; indexes breakers and down
	homes map[string]int   // function -> home rack

	// fabric is the inter-rack RDMA pool, and fabricStore interns one
	// fabric-addressable image per function for every non-home rack (a
	// window onto the home copy, not another copy — excluded from
	// memory totals). Both are nil with one rack.
	fabric      *mem.Pool
	fabricStore *snapshot.Store
	spillovers  sim.Counter

	// dispatcher labels primary dispatches: "rack" for one rack,
	// "fleet" for several.
	dispatcher string

	// Per-node health: crashed nodes and circuit breakers over pool-fetch
	// failure rate. pick routes around open breakers the way it routes
	// around dead nodes.
	down     []bool
	breakers []*fault.Breaker
	chaos    *fault.Injector

	// hedge owns dispatch, hedging/cloning, crash re-dispatch, and the
	// no-loss accounting.
	hedge *hedger

	// resultHook, when non-nil, observes every node's terminal outcomes
	// (experiments use it for availability bucketing). See
	// hedger.onResult for the delivery contract under hedging.
	resultHook func(node int, r faas.InvocationResult)

	recorder *obs.Recorder
	recEvery time.Duration
	alerts   *alert.Engine
	seed     int64
}

type rack struct {
	cxl   *mem.Pool
	store *snapshot.Store
	nodes []*faas.Platform
	first int // flat index of nodes[0]
}

// New builds a one-rack cluster of n nodes named n0..n<n-1>. Each node
// gets cfg's policy and sizing; the CXL pool, block store, and template
// registry are shared. The cluster owns the engine and the node names,
// so cfg.Engine and cfg.Node are ignored. Only TrEnv-CXL makes sense
// rack-wide (the point of the experiment); other policies are rejected.
func New(n int, cfg faas.Config) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", n)
	}
	return build(1, n, cfg)
}

// NewMultiRack builds racks x nodesPerRack nodes, one CXL pool per rack.
// With more than one rack, nodes are named r<i>n<j> and the racks are
// joined by the inter-rack RDMA fabric; NewMultiRack(1, n) is New(n).
// cfg must use TrEnvCXL.
func NewMultiRack(racks, nodesPerRack int, cfg faas.Config) (*Cluster, error) {
	if racks <= 0 || nodesPerRack <= 0 {
		return nil, fmt.Errorf("cluster: need positive rack/node counts, got %d x %d", racks, nodesPerRack)
	}
	return build(racks, nodesPerRack, cfg)
}

func build(racks, perRack int, cfg faas.Config) (*Cluster, error) {
	if cfg.Policy != faas.PolicyTrEnvCXL {
		return nil, fmt.Errorf("cluster: rack sharing requires trenv-cxl, got %q", cfg.Policy)
	}
	eng := sim.NewEngine(cfg.Seed)
	lat := mem.DefaultLatencyModel()
	c := &Cluster{eng: eng, homes: make(map[string]int), dispatcher: "rack", seed: cfg.Seed}
	if racks > 1 {
		c.dispatcher = "fleet"
		c.fabric = mem.NewPool(mem.RDMA, 0, lat)
		c.fabricStore = snapshot.NewStore(mem.NewBlockStore(c.fabric), mmtemplate.NewRegistry())
		c.fabric.SetHome("fabric")
	}
	for r := 0; r < racks; r++ {
		rk := &rack{cxl: mem.NewPool(mem.CXL, 0, lat), first: len(c.nodes)}
		// The shared pool lives on the rack's memory server, not on any
		// compute node — remote-fetch spans report it as their home.
		if racks == 1 {
			rk.cxl.SetHome("mem0")
		} else {
			rk.cxl.SetHome(c.rackName(r) + "mem")
		}
		rk.store = snapshot.NewStore(mem.NewBlockStore(rk.cxl), mmtemplate.NewRegistry())
		for n := 0; n < perRack; n++ {
			nodeCfg := cfg
			nodeCfg.Engine = eng
			nodeCfg.SharedStore = rk.store
			nodeCfg.Node = fmt.Sprintf("%sn%d", c.rackName(r), n)
			idx := len(c.nodes)
			userHook := cfg.OnResult
			nodeCfg.OnResult = func(res faas.InvocationResult) {
				c.hedge.onResult(idx, res)
				if userHook != nil {
					userHook(res)
				}
			}
			node := faas.New(nodeCfg)
			rk.nodes = append(rk.nodes, node)
			c.nodes = append(c.nodes, node)
			c.breakers = append(c.breakers, fault.NewBreaker(fault.DefaultBreakerConfig(), eng.Now))
		}
		c.racks = append(c.racks, rk)
	}
	c.down = make([]bool, len(c.nodes))
	c.hedge = &hedger{c: c, maxRedispatch: DefaultMaxRedispatch}
	return c, nil
}

// rackName is the name prefix of rack r's nodes: "" for a one-rack
// cluster (n0, n1, ...), "r<r>" otherwise (r1n0, ...).
func (c *Cluster) rackName(r int) string {
	if c.fabric == nil {
		return ""
	}
	return fmt.Sprintf("r%d", r)
}

func (c *Cluster) deliver(node int, r faas.InvocationResult) {
	if c.resultHook != nil {
		c.resultHook(node, r)
	}
}

// SetHedgePolicy arms request hedging/cloning — and the policy's
// per-attempt deadline, when set — for every attempt launched after the
// call. Set before RunTrace.
func (c *Cluster) SetHedgePolicy(hp HedgePolicy) { c.hedge.policy = hp }

// HedgePolicy returns the armed policy (zero value = off).
func (c *Cluster) HedgePolicy() HedgePolicy { return c.hedge.policy }

// SetMaxRedispatch overrides the per-invocation crash re-dispatch
// budget (default DefaultMaxRedispatch; < 0 is clamped to 0).
func (c *Cluster) SetMaxRedispatch(n int) {
	if n < 0 {
		n = 0
	}
	c.hedge.maxRedispatch = n
}

// SetSettleHook observes each invocation's settling outcome with its
// logical end-to-end latency (dispatch → first real terminal, hedge
// delays and re-dispatches included). Set before RunTrace.
func (c *Cluster) SetSettleHook(fn func(fn string, latency time.Duration, r faas.InvocationResult)) {
	c.hedge.onSettle = fn
}

// SetResultHook observes every invocation's terminal outcome with its
// flat node index. Set before RunTrace.
func (c *Cluster) SetResultHook(fn func(node int, r faas.InvocationResult)) {
	c.resultHook = fn
}

// Dispatched counts invocations handed to a node (excluding re-dispatch
// and hedge attempts).
func (c *Cluster) Dispatched() int64 { return c.hedge.dispatched.Value() }

// Results counts non-cancelled terminal outcomes observed.
func (c *Cluster) Results() int64 { return c.hedge.results.Value() }

// Redispatched counts crash-aborted invocations re-dispatched to survivors.
func (c *Cluster) Redispatched() int64 { return c.hedge.redispatched.Value() }

// Hedged counts hedge/clone attempts launched beyond primary dispatches.
func (c *Cluster) Hedged() int64 { return c.hedge.hedged.Value() }

// HedgeWins counts races settled by a non-primary attempt.
func (c *Cluster) HedgeWins() int64 { return c.hedge.hedgeWins.Value() }

// HedgeSkips counts hedge triggers dropped because no healthy distinct
// target node existed (graceful degradation to unhedged dispatch).
func (c *Cluster) HedgeSkips() int64 { return c.hedge.hedgeSkips.Value() }

// Cancelled counts losing attempts cooperatively cancelled after their
// race settled.
func (c *Cluster) Cancelled() int64 { return c.hedge.cancelled.Value() }

// RedispatchExhausted counts invocations abandoned after spending the
// crash re-dispatch budget.
func (c *Cluster) RedispatchExhausted() int64 { return c.hedge.exhausted.Value() }

// Wedged returns the attempts that never reached a terminal outcome:
// dispatched + redispatched + hedged − results − cancelled. After
// RunTrace drains, any recovery scheme worth the name leaves this at
// zero — with hedging on, every extra attempt must terminate too.
func (c *Cluster) Wedged() int64 { return c.hedge.wedged() }

// Breakers exposes the per-node circuit breakers (flat Nodes() order).
func (c *Cluster) Breakers() []*fault.Breaker { return c.breakers }

// AttachChaos points every pool (the fabric, each rack's CXL pool, the
// nodes' own pools) at the injector, wires node-crash events to
// KillNode, and arms the schedule. Attach before RunTrace.
func (c *Cluster) AttachChaos(inj *fault.Injector) {
	c.chaos = inj
	if c.fabric != nil {
		c.fabric.SetFaultAgent(inj, c.eng.Now)
	}
	for _, rk := range c.racks {
		rk.cxl.SetFaultAgent(inj, c.eng.Now)
		for _, node := range rk.nodes {
			node.AttachFaults(inj)
		}
	}
	inj.OnNodeCrash(func(name string) {
		for i, node := range c.nodes {
			if node.NodeName() == name {
				// Last-node and double-kill guards apply; a crash the
				// guards reject is dropped rather than wedging the rack.
				_ = c.KillNode(i)
				return
			}
		}
	})
	inj.Arm()
}

// Chaos returns the attached injector (nil when none).
func (c *Cluster) Chaos() *fault.Injector { return c.chaos }

// Engine returns the shared simulation engine.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Seed returns the simulation seed the cluster was built with — part of
// a run report's identity.
func (c *Cluster) Seed() int64 { return c.seed }

// Nodes returns every node, rack-major.
func (c *Cluster) Nodes() []*faas.Platform { return c.nodes }

// Racks returns the rack count.
func (c *Cluster) Racks() int { return len(c.racks) }

// Pool returns rack 0's CXL pool (the only one for New).
func (c *Cluster) Pool() *mem.Pool { return c.racks[0].cxl }

// Spillovers counts primary dispatches placed off their function's home
// rack (always zero with one rack).
func (c *Cluster) Spillovers() int64 { return c.spillovers.Value() }

// Register deploys a function homed on rack 0.
func (c *Cluster) Register(prof workload.FunctionProfile) error {
	return c.RegisterHome(prof, 0)
}

// RegisterHome deploys a function on every node with its consolidated
// image homed in rack home's CXL pool. With one rack the first node
// preprocesses the image under the configured placement and the rest
// find it in the shared store. With several, the home rack holds the
// one CXL copy and every other rack attaches to a fabric-addressable
// image of it.
func (c *Cluster) RegisterHome(prof workload.FunctionProfile, home int) error {
	if home < 0 || home >= len(c.racks) {
		return fmt.Errorf("cluster: home rack %d out of range", home)
	}
	if _, ok := c.homes[prof.Name]; ok {
		return fmt.Errorf("cluster: function %q already registered", prof.Name)
	}
	if c.fabric == nil {
		for i, node := range c.nodes {
			if err := node.Register(prof); err != nil {
				return fmt.Errorf("cluster: node %d: %w", i, err)
			}
		}
		c.homes[prof.Name] = home
		return nil
	}
	homeRack := c.racks[home]
	homeImg, err := homeRack.store.Preprocess(prof.Snapshot(), snapshot.Placement{Hot: homeRack.cxl, HotFraction: 1})
	if err != nil {
		return err
	}
	fabricImg, err := c.fabricStore.Preprocess(prof.Snapshot(), snapshot.Placement{Hot: c.fabric, HotFraction: 1})
	if err != nil {
		return err
	}
	for ri, rk := range c.racks {
		img := fabricImg
		if ri == home {
			img = homeImg
		}
		for _, node := range rk.nodes {
			if err := node.RegisterWithImage(prof, img); err != nil {
				return err
			}
		}
	}
	c.homes[prof.Name] = home
	return nil
}

// KillNode takes node i (flat Nodes() index) out of rotation — its warm
// instances and local memory are lost, but the consolidated images and
// templates live in pool memory, so the survivors keep serving every
// function with no re-preprocessing. This is the disaggregation
// dividend: node-local state is disposable.
func (c *Cluster) KillNode(i int) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("cluster: node %d out of range", i)
	}
	if c.down[i] {
		return fmt.Errorf("cluster: node %d already down", i)
	}
	if c.alive() == 1 {
		return fmt.Errorf("cluster: cannot kill the last node")
	}
	c.down[i] = true
	// Crash the platform so the dead node's warm instances release their
	// local-memory accounting and in-flight invocations abort (and are
	// re-dispatched via the hedger) instead of completing normally.
	c.nodes[i].Crash()
	return nil
}

// alive counts the nodes still in rotation.
func (c *Cluster) alive() int {
	n := 0
	for _, d := range c.down {
		if !d {
			n++
		}
	}
	return n
}

// AliveNodes returns the nodes still in rotation.
func (c *Cluster) AliveNodes() []*faas.Platform {
	var out []*faas.Platform
	for i, node := range c.nodes {
		if !c.down[i] {
			out = append(out, node)
		}
	}
	return out
}

// pick returns the node for fn's next attempt and whether it lies off
// fn's home rack (a spillover). Candidates are the alive nodes whose
// breakers admit traffic; when no alive node's breaker does, there is
// nowhere better to send work, so the filter degrades to plain
// aliveness — availability beats breaker hygiene. Only then are the
// nodes in exclude (those the current race already tried) removed; nil
// when none remains, and the hedger degrades to unhedged dispatch.
//
// Preference: (1) any candidate holding a warm instance, (2) the
// least-loaded home-rack candidate unless it is saturated, (3) the
// least-loaded candidate anywhere. Scans run in flat rack-major order
// and only a strictly smaller load displaces the incumbent, so ties
// break toward the lowest index — placement is a pure function of
// cluster state, never of map iteration order.
func (c *Cluster) pick(fn string, exclude map[string]bool) (*faas.Platform, bool) {
	healthOnly := false
	for i := range c.nodes {
		if !c.down[i] && c.breakers[i].Allow() {
			healthOnly = true
			break
		}
	}
	ok := func(i int) bool {
		return !c.down[i] && (!healthOnly || c.breakers[i].Allow()) && !exclude[c.nodes[i].NodeName()]
	}
	for i, node := range c.nodes {
		if ok(i) && node.HasWarm(fn) {
			return node, false
		}
	}
	home := c.racks[c.homes[fn]]
	var best *faas.Platform
	for i, node := range home.nodes {
		if ok(home.first+i) && (best == nil || node.Active() < best.Active()) {
			best = node
		}
	}
	if best != nil && best.Active() < best.Cores() {
		return best, false
	}
	global := best
	for i, node := range c.nodes {
		if ok(i) && (global == nil || node.Active() < global.Active()) {
			global = node
		}
	}
	return global, global != best
}

// Invoke schedules one invocation at virtual time at, placing it when the
// time arrives (so warm state is inspected at dispatch, not at submit).
func (c *Cluster) Invoke(at time.Duration, fn string) {
	c.eng.At(at, "dispatch", fn, func(p *sim.Proc) {
		c.hedge.dispatch(p, fn, c.dispatcher)
	})
}

// AttachRecorder samples reg's series into rec every interval of
// virtual time while RunTrace drives the cluster (interval <= 0 uses
// obs.DefaultSampleInterval). Attach before RunTrace.
func (c *Cluster) AttachRecorder(rec *obs.Recorder, every time.Duration) {
	c.recorder = rec
	c.recEvery = every
}

// AttachAlerts binds an alert engine to the cluster: it evaluates on the
// attached recorder's sampling instants (bound when RunTrace starts),
// links incidents through the shared tracer, and watches every node's
// SLO tracker. Attach before RunTrace, alongside AttachRecorder —
// without a recorder nothing drives evaluation.
func (c *Cluster) AttachAlerts(ae *alert.Engine) {
	c.alerts = ae
	// Nodes share one tracer when Config.Tracer was set; the first
	// node's view covers the cluster.
	ae.SetTracer(c.nodes[0].Tracer())
	for _, node := range c.nodes {
		ae.AddSLO(node.SLO())
	}
}

// Alerts returns the attached alert engine (nil unless AttachAlerts was
// called).
func (c *Cluster) Alerts() *alert.Engine { return c.alerts }

// active returns the invocations in flight across the cluster.
func (c *Cluster) active() int {
	n := 0
	for _, node := range c.nodes {
		n += node.Active()
	}
	return n
}

// RunTrace dispatches a trace across the cluster and runs to completion.
func (c *Cluster) RunTrace(tr workload.Trace) {
	for _, inv := range tr {
		c.Invoke(inv.At, inv.Function)
	}
	if c.recorder != nil {
		if c.alerts != nil {
			c.alerts.Observe(c.recorder)
		}
		end := tr.Duration()
		c.recorder.PumpWhile(c.eng, c.recEvery, func() bool {
			return c.eng.Now() < end || c.active() > 0
		})
	}
	c.eng.Run()
}

// DedupFactor returns logical/unique bytes for the racks' consolidated
// images: how many per-node copies the shared pools replaced.
func (c *Cluster) DedupFactor() float64 {
	var logical, unique int64
	for _, rk := range c.racks {
		logical += rk.store.Blocks().LogicalBytes()
		unique += rk.store.Blocks().UniqueBytes()
	}
	if unique == 0 {
		return 1
	}
	return float64(logical) / float64(unique)
}

// CXLBytes sums the racks' pool usage (the fabric is a window, not a
// copy, so it is excluded).
func (c *Cluster) CXLBytes() int64 {
	var n int64
	for _, rk := range c.racks {
		n += rk.cxl.Tracker().Used()
	}
	return n
}

// TotalPeakMemory sums the nodes' DRAM high-water marks.
func (c *Cluster) TotalPeakMemory() int64 {
	var n int64
	for _, node := range c.nodes {
		n += node.PeakMemory()
	}
	return n
}

// Invocations sums recorded invocations across nodes.
func (c *Cluster) Invocations() int {
	n := 0
	for _, node := range c.nodes {
		n += node.Metrics().Invocations()
	}
	return n
}
