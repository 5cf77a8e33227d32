package faas

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pagetable"
	"repro/internal/sim"
)

// Outcome is how an invocation terminated. Every invocation ends in
// exactly one of these — there is no silent loss path.
type Outcome string

const (
	// OutcomeSuccess completed normally.
	OutcomeSuccess Outcome = "success"
	// OutcomeFallback completed via the local-cold-start fallback after
	// the remote restore source was unavailable.
	OutcomeFallback Outcome = "fallback"
	// OutcomeError failed with a typed application/platform error.
	OutcomeError Outcome = "error"
	// OutcomeCrashed was aborted because its node crashed mid-flight;
	// clusters re-dispatch these to survivors.
	OutcomeCrashed Outcome = "node-crash"
)

// InvocationResult is the terminal record of one invocation, delivered
// to Config.OnResult. FaultTrace names the injected fault the invocation
// collided with ("" = clean), even when it still succeeded after retries.
type InvocationResult struct {
	Function   string
	Node       string
	TraceID    string
	Outcome    Outcome
	Err        error
	Retries    int
	FaultTrace string
	// Latency breakdown, set on successful (and fallback) outcomes:
	// Startup is the start-path total, FetchLat the demand remote-fetch
	// latency execution paid, PrefetchWait the time execution parked on
	// in-flight prefetch batches. Startup+FetchLat+PrefetchWait is the
	// invocation's effective restore cost — what working-set prefetching
	// attacks.
	Startup      time.Duration
	FetchLat     time.Duration
	PrefetchWait time.Duration
	// Token is the dispatcher's cancellation token when the invocation
	// was launched via InvokeAttempt (nil otherwise). The cluster
	// hedger uses it to map a terminal result back to its race.
	Token *CancelToken
}

// ErrNodeDown reports an invocation aborted by its node crashing.
type ErrNodeDown struct{ Node string }

func (e *ErrNodeDown) Error() string { return fmt.Sprintf("faas: node %s is down", e.Node) }

// Crash kills the node: warm instances release their memory accounting,
// queued invocations are woken so they can abort, and every in-flight
// invocation terminates with OutcomeCrashed at its next checkpoint.
// Safe to call outside a simulated process (no virtual time passes —
// a crash does no cleanup work). Idempotent.
func (pl *Platform) Crash() {
	if pl.crashed {
		return
	}
	pl.crashed = true
	for name, list := range pl.warm {
		for _, in := range list {
			pl.rt.ReleaseCrashed(in)
		}
		delete(pl.warm, name)
	}
	for name, q := range pl.waiting {
		for _, proc := range q {
			pl.eng.Resume(proc)
		}
		delete(pl.waiting, name)
	}
}

// Crashed reports whether Crash has been called.
func (pl *Platform) Crashed() bool { return pl.crashed }

// Pools returns the node's attached memory pools (CXL, RDMA, tmpfs).
func (pl *Platform) Pools() []*mem.Pool {
	return []*mem.Pool{pl.cxl, pl.rdma, pl.tmpfs}
}

// AttachFaults consults agent on every fetch against the node's pools,
// clocked by the platform's virtual time, and applies Config.Retry (or
// the default policy) to them. Attach before traffic arrives.
func (pl *Platform) AttachFaults(agent mem.FaultAgent) {
	for _, pool := range pl.Pools() {
		pool.SetFaultAgent(agent, pl.eng.Now)
		if pl.cfg.Retry != nil {
			pool.SetRetryPolicy(*pl.cfg.Retry)
		}
	}
}

// attempt is one invocation attempt's in-flight state: the result it
// will deliver, the inputs its checkpoints test, and what fail must
// unwind.
type attempt struct {
	res      InvocationResult
	tArrive  time.Duration
	deadline time.Duration // from tArrive; 0 = unbounded
	in       *core.Instance
	// rec is the working-set log this attempt is recording (nil when
	// it records none).
	rec *pagetable.WorkingSetLog
}

// checkpoint returns why the attempt must stop here — its node crashed
// (*ErrNodeDown), its dispatcher cancelled it (*ErrCancelled) or it
// overran its deadline (*ErrDeadlineExceeded) — or nil. All three are
// cooperative, never preemptive: an attempt observes them only at its
// checkpoints.
func (pl *Platform) checkpoint(p *sim.Proc, a *attempt) error {
	tok := a.res.Token
	switch {
	case pl.crashed:
		return &ErrNodeDown{Node: pl.nodeName}
	case tok.Cancelled():
		return &ErrCancelled{Reason: tok.reason, Winner: tok.winner}
	case a.deadline > 0 && p.Now() > a.tArrive+a.deadline:
		return &ErrDeadlineExceeded{Function: a.res.Function, Deadline: a.deadline}
	}
	return nil
}

// fail ends an attempt that will not complete, on every non-success
// exit. It abandons the working-set log the attempt was recording,
// sets the outcome and bumps the counter err's type names, records the
// error span — linked hedge-lost to a cancel's winner and caused-by to
// an injected fault — and unwinds the held instance: an abort (crash,
// cancel, deadline) releases it crash-style at no simulated cost, since
// nothing useful runs on it any more; an error tears it down normally.
func (pl *Platform) fail(p *sim.Proc, a *attempt, err error) {
	if a.rec != nil {
		a.rec.AbortRecording()
	}
	a.res.Err = err
	cancel, _ := err.(*ErrCancelled)
	var ft string // aborts never carry an injected fault
	switch err.(type) {
	case *ErrNodeDown:
		a.res.Outcome = OutcomeCrashed
		pl.metrics.CrashAborts.Inc()
	case *ErrCancelled:
		a.res.Outcome = OutcomeCancelled
		pl.metrics.Cancelled.Inc()
	case *ErrDeadlineExceeded:
		a.res.Outcome = OutcomeDeadline
		pl.metrics.DeadlineExceeded.Inc()
	default:
		pl.metrics.Errors.Inc()
		ft = faultTraceOf(err)
		if a.res.FaultTrace == "" {
			a.res.FaultTrace = ft
		}
	}
	if pl.tracer != nil {
		name := a.res.Function
		sp := obs.NewSpan("invoke/"+name, a.tArrive, p.Now())
		sp.SetAttr("function", name).SetAttr("policy", string(pl.cfg.Policy)).SetAttr("node", pl.nodeName)
		if t := errType(err); t != "" {
			sp.SetAttr("error_type", t)
		}
		if cancel != nil {
			sp.SetAttr("cancel_reason", cancel.Reason)
			if cancel.Winner != "" {
				// The race is walkable loser → winner.
				sp.AddLink(obs.Link{TraceID: cancel.Winner, Type: "hedge-lost"})
			}
		}
		if ft != "" {
			// Walkable back to the injected fault that caused the failure.
			sp.AddLink(obs.Link{TraceID: ft, Type: "caused-by"})
		}
		sp.Fail(err)
		sp.AssignIDs(a.res.TraceID)
		pl.tracer.Record(sp)
	}
	switch {
	case a.in == nil:
	case a.res.Outcome == OutcomeError:
		pl.release(p, a.in)
	default:
		pl.rt.ReleaseCrashed(a.in)
	}
}

// errType classifies an invocation error for span attribution; "" for
// untyped errors.
func errType(err error) string {
	var (
		nm *mem.ErrNoMemory
		pu *mem.ErrPoolUnavailable
		ff *mem.ErrFetchFailed
		fl *mem.ErrFlakyFetch
		nd *ErrNodeDown
		ca *ErrCancelled
		de *ErrDeadlineExceeded
	)
	switch {
	case errors.As(err, &nm):
		return "no-memory"
	case errors.As(err, &pu):
		return "pool-unavailable"
	case errors.As(err, &ff):
		return "fetch-failed"
	case errors.As(err, &fl):
		return "flaky-fetch"
	case errors.As(err, &nd):
		return "node-down"
	case errors.As(err, &ca):
		return "cancelled"
	case errors.As(err, &de):
		return "deadline-exceeded"
	}
	return ""
}

// faultTraceOf extracts the injected fault's trace ID from a typed
// error chain ("" when the error wasn't fault-induced).
func faultTraceOf(err error) string {
	var pu *mem.ErrPoolUnavailable
	if errors.As(err, &pu) {
		return pu.FaultTrace
	}
	var ff *mem.ErrFetchFailed
	if errors.As(err, &ff) {
		return ff.FaultTrace
	}
	var fl *mem.ErrFlakyFetch
	if errors.As(err, &fl) {
		return fl.FaultTrace
	}
	return ""
}
