package faas

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// outagePlatform builds a TrEnv-CXL platform with the CXL pool dark for
// the whole run, capturing every terminal outcome.
func outagePlatform(t *testing.T, tweak func(*Config)) (*Platform, *[]InvocationResult) {
	t.Helper()
	results := new([]InvocationResult)
	cfg := DefaultConfig(PolicyTrEnvCXL)
	cfg.Node = "n0"
	cfg.OnResult = func(r InvocationResult) { *results = append(*results, r) }
	if tweak != nil {
		tweak(&cfg)
	}
	pl := New(cfg)
	for _, p := range workload.Table4() {
		if err := pl.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	inj := fault.NewInjector(pl.Engine(), cfg.Seed, fault.Scenario{
		PoolOutages: []fault.PoolOutage{{Pool: "cxl", From: 0, To: time.Hour}},
	})
	pl.AttachFaults(inj)
	inj.Arm()
	return pl, results
}

// TestOutageFallsBackToLocalColdStart: with the CXL pool dark, restores
// cannot attach the remote template — every cold start must degrade to a
// local cold start recorded as a fallback, with the invocation still
// succeeding and no errors surfacing.
func TestOutageFallsBackToLocalColdStart(t *testing.T) {
	pl, results := outagePlatform(t, nil)
	pl.Invoke(0, "JS")
	pl.Invoke(time.Millisecond, "DH")
	pl.Engine().Run()

	m := pl.Metrics()
	if m.Errors.Value() != 0 {
		t.Fatalf("errors = %d, want 0 (fallback must absorb the outage)", m.Errors.Value())
	}
	if m.Fallbacks.Value() != 2 {
		t.Fatalf("fallbacks = %d, want 2", m.Fallbacks.Value())
	}
	if len(*results) != 2 {
		t.Fatalf("results = %d, want 2", len(*results))
	}
	for _, r := range *results {
		if r.Outcome != OutcomeFallback {
			t.Fatalf("outcome %q, want %q", r.Outcome, OutcomeFallback)
		}
		if r.FaultTrace == "" {
			t.Fatalf("fallback result for %s carries no fault trace to link to the outage", r.Function)
		}
		if r.Err != nil {
			t.Fatalf("fallback result carries error %v", r.Err)
		}
	}
}

// TestCleanAfterUseOnDarkPoolCountsOnce: with CleanAfterUse on a dark
// CXL pool, the invocation is served by a fallback and recorded; the
// failed template re-attach that follows releases the instance without
// counting the same invocation a second time as an error.
func TestCleanAfterUseOnDarkPoolCountsOnce(t *testing.T) {
	pl, results := outagePlatform(t, func(cfg *Config) { cfg.CleanAfterUse = true })
	pl.Invoke(0, "JS")
	pl.Engine().Run()

	m := pl.Metrics()
	if len(*results) != 1 || (*results)[0].Outcome != OutcomeFallback {
		t.Fatalf("results = %+v, want one fallback", *results)
	}
	if m.Errors.Value() != 0 || m.Fallbacks.Value() != 1 || m.Invocations() != 1 {
		t.Fatalf("errors %d fallbacks %d invocations %d, want 0 1 1",
			m.Errors.Value(), m.Fallbacks.Value(), m.Invocations())
	}
	if n := pl.WarmCount(); n != 0 {
		t.Fatalf("warm instances = %d, want 0 (the unscrubbed instance is released)", n)
	}
}

// TestOutageWithFallbackDisabledSurfacesTypedError: the same outage with
// DisableFallback set must surface *mem.ErrPoolUnavailable as a typed
// error outcome instead of silently degrading.
func TestOutageWithFallbackDisabledSurfacesTypedError(t *testing.T) {
	pl, results := outagePlatform(t, func(cfg *Config) { cfg.DisableFallback = true })
	pl.Invoke(0, "JS")
	pl.Engine().Run()

	m := pl.Metrics()
	if m.Errors.Value() != 1 || m.Fallbacks.Value() != 0 {
		t.Fatalf("errors=%d fallbacks=%d, want 1/0", m.Errors.Value(), m.Fallbacks.Value())
	}
	if len(*results) != 1 {
		t.Fatalf("results = %d, want 1", len(*results))
	}
	r := (*results)[0]
	if r.Outcome != OutcomeError {
		t.Fatalf("outcome %q, want %q", r.Outcome, OutcomeError)
	}
	var pu *mem.ErrPoolUnavailable
	if !errors.As(r.Err, &pu) {
		t.Fatalf("error %v (%T), want *mem.ErrPoolUnavailable", r.Err, r.Err)
	}
	if pu.Pool != "cxl" || pu.FaultTrace == "" {
		t.Fatalf("typed error = %+v, want traced cxl outage", pu)
	}
}

// TestCrashAbortsDeliverOutcome: crashing a platform mid-flight delivers
// OutcomeCrashed for every in-flight invocation — nothing completes
// silently on a dead node and nothing wedges the engine.
func TestCrashAbortsDeliverOutcome(t *testing.T) {
	var results []InvocationResult
	cfg := DefaultConfig(PolicyTrEnvCXL)
	cfg.Node = "n0"
	cfg.OnResult = func(r InvocationResult) { results = append(results, r) }
	pl := New(cfg)
	for _, p := range workload.Table4() {
		if err := pl.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	const n = 4
	for i := 0; i < n; i++ {
		pl.Invoke(time.Duration(i)*100*time.Microsecond, "JS")
	}
	pl.Engine().At(time.Millisecond, "crash", "", func(p *sim.Proc) { pl.Crash() })
	pl.Engine().Run()

	if len(results) != n {
		t.Fatalf("results = %d, want %d (no invocation may vanish on crash)", len(results), n)
	}
	crashed := 0
	for _, r := range results {
		if r.Outcome == OutcomeCrashed {
			crashed++
			var nd *ErrNodeDown
			if !errors.As(r.Err, &nd) || nd.Node != "n0" {
				t.Fatalf("crash outcome error = %v, want *ErrNodeDown{n0}", r.Err)
			}
		}
	}
	if crashed == 0 {
		t.Fatal("crash landed with nothing in flight; burst timing is off")
	}
	if got := pl.Metrics().CrashAborts.Value(); got != int64(crashed) {
		t.Fatalf("CrashAborts = %d, want %d", got, crashed)
	}
	// A dead platform refuses new work with a crash outcome too.
	pl.Invoke(pl.Engine().Now(), "JS")
	pl.Engine().Run()
	if last := results[len(results)-1]; last.Outcome != OutcomeCrashed {
		t.Fatalf("post-crash invoke outcome %q, want %q", last.Outcome, OutcomeCrashed)
	}
}

// TestFailedFallbackKeepsOutageCause: when the local cold start that
// stands in for an unavailable restore fails too, the error outcome
// still names the outage — the result's FaultTrace and a caused-by link
// on the error span — and both typed errors stay on the chain.
func TestFailedFallbackKeepsOutageCause(t *testing.T) {
	tracer := obs.NewTracer(0)
	pl, results := outagePlatform(t, func(cfg *Config) { cfg.Tracer = tracer })
	// A node too small for JS's cold image: the fallback's bootstrap
	// cannot allocate it.
	tiny := mem.NewTracker("node-dram", 1<<20)
	pl.node, pl.rt.Tracker = tiny, tiny
	pl.Invoke(0, "JS")
	pl.Engine().Run()

	m := pl.Metrics()
	if m.Errors.Value() != 1 || m.Fallbacks.Value() != 0 {
		t.Fatalf("errors=%d fallbacks=%d, want 1/0", m.Errors.Value(), m.Fallbacks.Value())
	}
	if len(*results) != 1 || (*results)[0].Outcome != OutcomeError {
		t.Fatalf("results = %+v, want one error outcome", *results)
	}
	r := (*results)[0]
	var pu *mem.ErrPoolUnavailable
	var nm *mem.ErrNoMemory
	if !errors.As(r.Err, &pu) || !errors.As(r.Err, &nm) {
		t.Fatalf("error %v, want both the pool outage and the cold start's no-memory on its chain", r.Err)
	}
	if pu.FaultTrace == "" || r.FaultTrace != pu.FaultTrace {
		t.Fatalf("result FaultTrace %q, want the outage's %q", r.FaultTrace, pu.FaultTrace)
	}
	sp := tracer.Find(r.TraceID)
	if sp == nil {
		t.Fatal("no error span recorded")
	}
	if got := sp.Attrs["error_type"]; got != "no-memory" {
		t.Errorf("error_type = %q, want no-memory (the failure that ended the attempt)", got)
	}
	want := []obs.Link{{TraceID: pu.FaultTrace, Type: "caused-by"}}
	if !reflect.DeepEqual(sp.Links, want) {
		t.Errorf("error span links %+v, want %+v", sp.Links, want)
	}
}
