package cluster

// Request hedging and speculative cloning. The remote-restore path has
// a known P99 cliff — RDMA fetch tails, retry backoff after injected
// faults, CPU queueing on a hot node — and because a rack shares its
// consolidated images and templates through the pooled memory, *any*
// node can serve *any* function at warm-ish cost. That makes the
// classic tail-killing move cheap: race a second attempt of a slow
// invocation on another node, keep whichever finishes first, cancel the
// loser. The hedger below is that dispatch state machine, driven purely
// by virtual time so same-seed runs stay byte-identical with hedging on.

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/sim"
)

// HedgeMode selects when clone attempts launch.
type HedgeMode string

const (
	// HedgeOff disables hedging (the default).
	HedgeOff HedgeMode = "off"
	// HedgeDelay launches one clone after a fixed virtual delay if the
	// primary attempt is still in flight.
	HedgeDelay HedgeMode = "delay"
	// HedgePercentile launches one clone once the primary outlives the
	// observed P<n> end-to-end latency of its function (merged across
	// the fleet's flight recorders), falling back to a fixed delay
	// until enough samples exist.
	HedgePercentile HedgeMode = "percentile"
	// HedgeClone dispatches N attempts eagerly on distinct nodes — the
	// PS-model clone-factor experiment's mode.
	HedgeClone HedgeMode = "clone"
)

const (
	// DefaultHedgeDelay triggers delayed hedges when the percentile
	// estimator has no data yet and the policy names no fallback.
	DefaultHedgeDelay = 20 * time.Millisecond
	// DefaultMaxRedispatch bounds crash→re-dispatch loops per
	// invocation; the attempt after the budget is spent terminates as
	// OutcomeRedispatchExhausted instead of re-enqueueing forever.
	DefaultMaxRedispatch = 3

	defaultHedgeMinSamples = 20
)

// HedgePolicy parameterizes the hedger. The zero value is "off".
type HedgePolicy struct {
	Mode HedgeMode
	// Delay is the trigger for HedgeDelay, and the fallback trigger for
	// HedgePercentile before the estimator has MinSamples observations
	// (0 = DefaultHedgeDelay).
	Delay time.Duration
	// Percentile (e.g. 95) picks the trigger off the function's merged
	// end-to-end distribution in HedgePercentile mode.
	Percentile float64
	// MinDelay floors the percentile-derived trigger.
	MinDelay time.Duration
	// MinSamples gates the estimator (0 = 20).
	MinSamples int
	// Clones is the total attempts HedgeClone dispatches (< 2 reads as 2).
	Clones int
	// Deadline, when > 0, is applied to every node as the
	// per-invocation deadline (faas.Config.Deadline).
	Deadline time.Duration
}

// Enabled reports whether the policy launches extra attempts.
func (hp HedgePolicy) Enabled() bool { return hp.Mode != "" && hp.Mode != HedgeOff }

// Spec renders the policy in the grammar ParseHedgePolicy accepts.
func (hp HedgePolicy) Spec() string {
	var b strings.Builder
	switch hp.Mode {
	case HedgeDelay:
		fmt.Fprintf(&b, "delay:%s", hp.Delay)
	case HedgePercentile:
		fmt.Fprintf(&b, "p%g", hp.Percentile)
		if hp.MinDelay > 0 {
			fmt.Fprintf(&b, ",min=%s", hp.MinDelay)
		}
		if hp.Delay > 0 {
			fmt.Fprintf(&b, ",fallback=%s", hp.Delay)
		}
		if hp.MinSamples > 0 {
			fmt.Fprintf(&b, ",samples=%d", hp.MinSamples)
		}
	case HedgeClone:
		n := hp.Clones
		if n < 2 {
			n = 2
		}
		fmt.Fprintf(&b, "clone:%d", n)
	default:
		b.WriteString("off")
	}
	if hp.Deadline > 0 {
		fmt.Fprintf(&b, ",deadline=%s", hp.Deadline)
	}
	return b.String()
}

// ParseHedgePolicy parses a hedge-policy spec. The first comma-separated
// clause picks the mode; later clauses are modifiers:
//
//	off                 no hedging
//	delay:<dur>         one clone after a fixed virtual delay
//	p<pct>              one clone after the observed P<pct> e2e latency
//	clone:<n>           n eager attempts on distinct nodes
//
//	min=<dur>           percentile mode: floor on the trigger
//	fallback=<dur>      percentile mode: trigger before enough samples
//	samples=<n>         percentile mode: samples the estimator needs
//	deadline=<dur>      per-invocation deadline on every node
//
// Examples: "delay:10ms", "p95,min=2ms,deadline=1s", "clone:3".
func ParseHedgePolicy(spec string) (HedgePolicy, error) {
	var hp HedgePolicy
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		hp.Mode = HedgeOff
		return hp, nil
	}
	clauses := strings.Split(spec, ",")
	mode := strings.TrimSpace(clauses[0])
	switch {
	case mode == "off":
		hp.Mode = HedgeOff
	case strings.HasPrefix(mode, "delay:"):
		d, err := time.ParseDuration(mode[len("delay:"):])
		if err != nil || d <= 0 {
			return hp, fmt.Errorf("cluster: bad hedge delay %q", mode)
		}
		hp.Mode = HedgeDelay
		hp.Delay = d
	case strings.HasPrefix(mode, "clone:"):
		n, err := strconv.Atoi(mode[len("clone:"):])
		if err != nil || n < 2 {
			return hp, fmt.Errorf("cluster: bad clone factor %q (want an integer >= 2)", mode)
		}
		hp.Mode = HedgeClone
		hp.Clones = n
	case strings.HasPrefix(mode, "p"):
		pct, err := strconv.ParseFloat(mode[1:], 64)
		if err != nil || pct <= 0 || pct >= 100 {
			return hp, fmt.Errorf("cluster: bad hedge percentile %q (want p50..p99.9)", mode)
		}
		hp.Mode = HedgePercentile
		hp.Percentile = pct
	default:
		return hp, fmt.Errorf("cluster: unknown hedge mode %q (want off, delay:<dur>, p<pct>, clone:<n>)", mode)
	}
	for _, clause := range clauses[1:] {
		clause = strings.TrimSpace(clause)
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return hp, fmt.Errorf("cluster: bad hedge modifier %q (want key=value)", clause)
		}
		switch key {
		case "min":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return hp, fmt.Errorf("cluster: bad hedge min %q", val)
			}
			hp.MinDelay = d
		case "fallback":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return hp, fmt.Errorf("cluster: bad hedge fallback %q", val)
			}
			hp.Delay = d
		case "samples":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return hp, fmt.Errorf("cluster: bad hedge samples %q", val)
			}
			hp.MinSamples = n
		case "deadline":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return hp, fmt.Errorf("cluster: bad hedge deadline %q", val)
			}
			hp.Deadline = d
		default:
			return hp, fmt.Errorf("cluster: unknown hedge modifier %q", key)
		}
	}
	if hp.Mode != HedgePercentile && (hp.MinDelay > 0 || hp.MinSamples > 0) {
		return hp, fmt.Errorf("cluster: min=/samples= modifiers need a p<pct> mode")
	}
	return hp, nil
}

// hedgeGroup tracks one logical invocation across every attempt the
// fleet launches for it: the primary dispatch, delayed hedges or eager
// clones, and crash re-dispatches. The first attempt to reach a real
// terminal outcome settles the race; every sibling's token is cancelled
// at that instant.
type hedgeGroup struct {
	fn         string
	start      time.Duration
	attempts   int // launched
	terminals  int // terminal outcomes observed
	hedges     int // hedge/clone attempts among attempts
	redisp     int // crash re-dispatches consumed
	settled    bool
	done       bool
	winnerID   string
	winnerNode string
	tokens     []*faas.CancelToken
	nodesTried map[string]bool
}

func (g *hedgeGroup) active() int { return g.attempts - g.terminals }

// hedger is the cluster's dispatch state machine: it owns the no-loss
// accounting (the extended zero-wedged invariant), the hedge policy, and
// the crash re-dispatch budget.
type hedger struct {
	c             *Cluster
	policy        HedgePolicy
	maxRedispatch int

	// onSettle observes each invocation's settling outcome with its
	// logical end-to-end latency (dispatch → first real terminal,
	// hedging delays and re-dispatch included).
	onSettle func(fn string, latency time.Duration, r faas.InvocationResult)

	dispatched   sim.Counter // invocations handed to a node
	results      sim.Counter // non-cancelled terminal outcomes observed
	redispatched sim.Counter // crash-aborted invocations re-dispatched
	hedged       sim.Counter // hedge/clone attempts beyond the primary
	hedgeWins    sim.Counter // races settled by a non-primary attempt
	hedgeSkips   sim.Counter // hedge triggers with no healthy distinct target
	cancelled    sim.Counter // losing attempts cooperatively cancelled
	exhausted    sim.Counter // invocations that spent the re-dispatch budget
	spans        int64       // hedge-span sequence (trace identity)
}

// wedged is the extended no-loss invariant: every launched attempt
// (primary dispatches + re-dispatches + hedges) must terminate exactly
// once, either as a counted result or as a cancelled loser. Zero after
// a drained run, or the fleet lost work.
func (h *hedger) wedged() int64 {
	return h.dispatched.Value() + h.redispatched.Value() + h.hedged.Value() -
		h.results.Value() - h.cancelled.Value()
}

// dispatch launches the primary attempt of one invocation inside p,
// arming the policy's extra attempts around it.
func (h *hedger) dispatch(p *sim.Proc, fn, dispatcher string) {
	h.dispatched.Inc()
	g := &hedgeGroup{fn: fn, start: p.Now(), nodesTried: make(map[string]bool)}
	switch h.policy.Mode {
	case HedgeClone:
		h.dispatchClones(p, g, dispatcher)
	case HedgeDelay, HedgePercentile:
		h.armHedge(g)
		h.launchPrimary(p, g, dispatcher)
	default:
		h.launchPrimary(p, g, dispatcher)
	}
}

func (h *hedger) launchPrimary(p *sim.Proc, g *hedgeGroup, dispatcher string) {
	node, dispatcher := h.pickPrimary(g.fn, dispatcher)
	h.runOn(p, g, node, dispatcher)
}

// pickPrimary places an invocation's first attempt. A placement off the
// function's home rack counts as a spillover and is labelled
// "fleet-spill"; hedge and re-dispatch attempts keep their own labels.
func (h *hedger) pickPrimary(fn, dispatcher string) (*faas.Platform, string) {
	node, spilled := h.c.pick(fn, nil)
	if spilled {
		h.c.spillovers.Inc()
		dispatcher = "fleet-spill"
	}
	return node, dispatcher
}

// runOn launches one attempt on node inside p, blocking until the
// attempt reaches a terminal outcome. An attempt born after its race
// settled starts pre-cancelled and aborts at its first checkpoint.
func (h *hedger) runOn(p *sim.Proc, g *hedgeGroup, node *faas.Platform, dispatcher string) {
	tok := faas.NewCancelToken(g)
	if g.settled {
		tok.Cancel("hedge-lost", g.winnerID)
	}
	g.tokens = append(g.tokens, tok)
	g.attempts++
	g.nodesTried[node.NodeName()] = true
	node.InvokeAttempt(p, g.fn, dispatcher, tok)
}

// armHedge schedules the delayed clone: if the primary is still in
// flight when the trigger fires, one extra attempt launches on a node
// the race has not tried. The trigger is pure virtual time, so
// same-seed runs hedge at identical instants.
func (h *hedger) armHedge(g *hedgeGroup) {
	h.c.eng.After(h.hedgeDelay(g.fn), func() {
		if g.settled || g.hedges > 0 || g.active() == 0 {
			return
		}
		h.c.eng.Go("hedge/"+g.fn, func(p *sim.Proc) {
			if g.settled || g.active() == 0 {
				return
			}
			node, _ := h.c.pick(g.fn, g.nodesTried)
			if node == nil {
				// No healthy distinct target: degrade to unhedged.
				h.hedgeSkips.Inc()
				return
			}
			g.hedges++
			h.hedged.Inc()
			h.runOn(p, g, node, "hedge")
		})
	})
}

// dispatchClones eagerly races the policy's clone factor across
// distinct nodes; when the fleet has fewer healthy nodes than clones,
// the surplus is skipped, not queued.
func (h *hedger) dispatchClones(p *sim.Proc, g *hedgeGroup, dispatcher string) {
	want := h.policy.Clones
	if want < 2 {
		want = 2
	}
	primary, dispatcher := h.pickPrimary(g.fn, dispatcher)
	reserved := map[string]bool{primary.NodeName(): true}
	var extras []*faas.Platform
	for len(extras) < want-1 {
		node, _ := h.c.pick(g.fn, reserved)
		if node == nil {
			h.hedgeSkips.Inc()
			break
		}
		reserved[node.NodeName()] = true
		extras = append(extras, node)
	}
	for _, node := range extras {
		node := node
		g.hedges++
		h.hedged.Inc()
		h.c.eng.Go("clone/"+g.fn, func(p2 *sim.Proc) { h.runOn(p2, g, node, "clone") })
	}
	h.runOn(p, g, primary, dispatcher)
}

// hedgeDelay returns the virtual-time trigger for fn's delayed hedge.
func (h *hedger) hedgeDelay(fn string) time.Duration {
	switch h.policy.Mode {
	case HedgeDelay:
		if h.policy.Delay > 0 {
			return h.policy.Delay
		}
		return DefaultHedgeDelay
	case HedgePercentile:
		if est, ok := h.estimate(fn); ok {
			if est < h.policy.MinDelay {
				est = h.policy.MinDelay
			}
			return est
		}
		if h.policy.Delay > 0 {
			return h.policy.Delay
		}
		return DefaultHedgeDelay
	}
	return 0
}

// estimate merges the fleet's per-node end-to-end latency histograms
// for fn and reads the policy's percentile off the merged distribution;
// ok=false until MinSamples post-warmup observations exist.
func (h *hedger) estimate(fn string) (time.Duration, bool) {
	var merged sim.Histogram
	for _, node := range h.c.nodes {
		if fm, ok := node.Metrics().PerFn[fn]; ok {
			merged.Merge(&fm.E2E)
		}
	}
	min := h.policy.MinSamples
	if min <= 0 {
		min = defaultHedgeMinSamples
	}
	if merged.N() < min {
		return 0, false
	}
	return time.Duration(merged.Percentile(h.policy.Percentile) * float64(time.Millisecond)), true
}

// onResult is the single funnel every node's terminal outcomes flow
// through. Delivery contract: the topology's result hook sees every
// terminal outcome — the settling result, cancelled losers, crash
// aborts, synthetic redispatch-exhausted records (node index -1) —
// except late losers that completed after their race had already
// settled (counted in the invariant, suppressed from the hook so one
// invocation never reports two winners).
func (h *hedger) onResult(node int, r faas.InvocationResult) {
	g, _ := r.Token.Meta().(*hedgeGroup)
	if g != nil {
		g.terminals++
	}
	if r.Outcome == faas.OutcomeCancelled {
		h.cancelled.Inc()
		h.c.deliver(node, r)
		h.finish(g)
		return
	}
	wasSettled := g != nil && g.settled
	h.results.Inc()
	if r.Outcome == faas.OutcomeCrashed {
		h.c.deliver(node, r)
		if g != nil && (wasSettled || g.active() > 0) {
			// A sibling already won, or is still racing: the crash
			// consumed this attempt and costs nothing further.
			h.finish(g)
			return
		}
		h.redispatch(g, r.Function)
		return
	}
	// A fault-tainted outcome (error, fallback, or success-after-retry)
	// counts against the node's pool-fetch health.
	h.c.breakers[node].Record(r.FaultTrace == "" && r.Outcome != faas.OutcomeError)
	if g == nil {
		h.c.deliver(node, r)
		return
	}
	// A deadline-exceeded attempt with a live sibling doesn't settle
	// the race — the sibling's own deadline runs from its later start.
	settles := !wasSettled && (r.Outcome != faas.OutcomeDeadline || g.active() == 0)
	if settles {
		g.settled = true
		g.winnerID = r.TraceID
		g.winnerNode = r.Node
		if r.Token != g.tokens[0] {
			h.hedgeWins.Inc()
		}
		for _, tok := range g.tokens {
			if tok != r.Token {
				tok.Cancel("hedge-lost", r.TraceID)
			}
		}
	}
	if !wasSettled {
		h.c.deliver(node, r)
		if settles && h.onSettle != nil {
			h.onSettle(g.fn, h.c.eng.Now()-g.start, r)
		}
	}
	h.finish(g)
}

// redispatch re-enqueues a crash-aborted invocation on a survivor,
// bounded by the per-invocation budget. Exhaustion synthesizes an
// OutcomeRedispatchExhausted record (node -1) delivered to the result
// hook AND settled through the settle hook, so the loss is a visible
// terminal outcome on both channels, not a silently vanished invocation.
func (h *hedger) redispatch(g *hedgeGroup, fn string) {
	if g == nil {
		// A crash from a directly-invoked (token-less) attempt: adopt it
		// into a fresh group so the budget binds from here on.
		g = &hedgeGroup{fn: fn, start: h.c.eng.Now(), nodesTried: make(map[string]bool)}
	}
	if g.redisp >= h.maxRedispatch {
		h.exhausted.Inc()
		r := faas.InvocationResult{
			Function: fn,
			Outcome:  faas.OutcomeRedispatchExhausted,
			Err:      fmt.Errorf("cluster: %s: gave up after %d crash re-dispatches", fn, g.redisp),
		}
		h.c.deliver(-1, r)
		if !g.settled {
			g.settled = true
			if h.onSettle != nil {
				h.onSettle(fn, h.c.eng.Now()-g.start, r)
			}
		}
		h.finish(g)
		return
	}
	g.redisp++
	h.redispatched.Inc()
	h.c.eng.Go("redispatch/"+fn, func(p *sim.Proc) {
		node, _ := h.c.pick(fn, nil)
		h.runOn(p, g, node, "redispatch")
	})
}

// finish emits the race's hedge span once every attempt is terminal:
// one root span covering dispatch → last terminal, linked hedge-won to
// the winner's trace and hedge-lost to each loser's, so the whole race
// is walkable from either side. Unhedged groups emit nothing.
func (h *hedger) finish(g *hedgeGroup) {
	if g == nil || g.done || g.active() > 0 {
		return
	}
	g.done = true
	if g.attempts < 2 {
		return
	}
	tr := h.c.nodes[0].Tracer()
	if tr == nil {
		return
	}
	h.spans++
	sp := obs.NewSpan("hedge/"+g.fn, g.start, h.c.eng.Now())
	sp.SetAttr("function", g.fn).SetAttr("policy", string(h.policy.Mode)).
		SetAttr("attempts", strconv.Itoa(g.attempts)).
		SetAttr("hedges", strconv.Itoa(g.hedges))
	if g.winnerNode != "" {
		sp.SetAttr("winner_node", g.winnerNode)
	}
	for _, tok := range g.tokens {
		tid := tok.TraceID()
		if tid == "" {
			continue
		}
		typ := "hedge-lost"
		if tid == g.winnerID {
			typ = "hedge-won"
		}
		sp.AddLink(obs.Link{TraceID: tid, Type: typ})
	}
	sp.AssignIDs(obs.TraceIDFor("fleet", "hedge", g.fn, strconv.FormatInt(h.spans, 10)))
	tr.Record(sp)
}
