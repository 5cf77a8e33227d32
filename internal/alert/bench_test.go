package alert

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
)

// evalFixture builds an engine over a recorder of ~150 series with the
// default rules, an absence rule, a label-selected threshold rule that
// fires at once and stays firing, and an SLO tracker with healthy
// traffic. It samples until every rule has settled and returns a func
// that evaluates the next instant.
func evalFixture(tb testing.TB) (*Engine, func()) {
	reg := obs.NewRegistry()
	var zero int64
	reg.CounterFunc("trenv_fallbacks_total", "f", nil, func() int64 { return zero })
	reg.CounterFunc("trenv_errors_total", "e", nil, func() int64 { return zero })
	for i := 0; i < 4; i++ {
		reg.GaugeFunc("trenv_breaker_state", "b", map[string]string{"node": fmt.Sprintf("n%d", i)},
			func() float64 { return 0 })
	}
	reg.GaugeFunc("trenv_pool_used_bytes", "u", map[string]string{"pool": "cxl"}, func() float64 { return 1 << 30 })
	for i := 0; i < 143; i++ {
		reg.CounterFunc(fmt.Sprintf("trenv_c%03d_total", i), "c", nil, func() int64 { return zero })
	}
	rec := obs.NewRecorder(reg, 64)
	slo := obs.NewSLOTracker()
	slo.SetDefault(obs.SLO{Target: time.Second, Objective: 0.99})
	rules := append(DefaultRules(),
		Rule{Name: "pool-silent", Kind: KindAbsence, Series: "trenv_pool_used_bytes", Window: 1000 * time.Hour},
		Rule{Name: "pool-full", Kind: KindThreshold, Series: "trenv_pool_used_bytes",
			Labels: map[string]string{"pool": "cxl"}, Op: OpGT, Value: 1},
	)
	e := New(rules)
	e.Observe(rec)
	e.AddSLO(slo)
	now := time.Duration(0)
	step := func() {
		now += obs.DefaultSampleInterval
		for _, fn := range []string{"JS", "DH", "CR"} {
			slo.Record(fn, now, 10*time.Millisecond)
		}
		rec.Sample(now) // drives Eval
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if e.Firing() != 1 {
		tb.Fatalf("fixture has %d rules firing, want 1 (pool-full)", e.Firing())
	}
	return e, func() {
		now += obs.DefaultSampleInterval
		e.Eval(now)
	}
}

// TestEvalSteadyStateAllocatesNothing: with no rule changing state —
// one staying firing, the rest inactive — an evaluation allocates
// nothing, because matches are cached and findings render lazily.
func TestEvalSteadyStateAllocatesNothing(t *testing.T) {
	e, eval := evalFixture(t)
	events := len(e.Timeline())
	allocs := testing.AllocsPerRun(100, eval)
	if allocs != 0 {
		t.Fatalf("steady-state Eval allocates %.1f times, want 0", allocs)
	}
	if len(e.Timeline()) != events {
		t.Fatal("steady-state evaluation produced a transition")
	}
	if got := e.Snapshot()[len(e.Rules())-1].Detail; got != `trenv_pool_used_bytes{pool="cxl"} = 1.073741824e+09 > 1` {
		t.Fatalf("firing rule detail = %q", got)
	}
}

func BenchmarkAlertEval(b *testing.B) {
	_, eval := evalFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval()
	}
}
