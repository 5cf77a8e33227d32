package faas

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/alert"
	"repro/internal/obs"
	"repro/internal/workload"
)

// obsOnOffRun runs a fixed-seed TrEnv-CXL node, with the observability
// stack trenvd runs (tracer, registry, flight recorder, default alert
// rules) or with none, and returns every OnResult in delivery order
// (trace IDs blanked: only the traced run has them) and the metrics.
func obsOnOffRun(t *testing.T, withObs bool) ([]string, Export) {
	t.Helper()
	cfg := DefaultConfig(PolicyTrEnvCXL)
	cfg.Seed = 5
	var results []string
	cfg.OnResult = func(r InvocationResult) {
		r.TraceID = ""
		results = append(results, fmt.Sprintf("%+v", r))
	}
	if withObs {
		cfg.Tracer = obs.NewTracer(0)
	}
	pl := New(cfg)
	for _, p := range workload.Table4() {
		if err := pl.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	var rec *obs.Recorder
	var ae *alert.Engine
	if withObs {
		reg := obs.NewRegistry()
		pl.RegisterMetrics(reg)
		obs.RegisterTracerDrops(reg, nil, cfg.Tracer)
		obs.RegisterBuildInfo(reg, nil)
		rec = obs.NewRecorder(reg, 0)
		pl.AttachRecorder(rec, 0)
		ae = alert.New(alert.DefaultRules())
		ae.RegisterMetrics(reg, nil)
		pl.AttachAlerts(ae)
	}
	tc := workload.AzureConfig(fnNames())
	tc.Duration = 6 * time.Minute
	pl.RunTrace(workload.Industrial(rand.New(rand.NewSource(5)), tc))
	if withObs && (rec.Samples() == 0 || ae.Evals() == 0 || cfg.Tracer.Len() == 0) {
		t.Fatalf("obs stack idle: %d samples, %d evals, %d spans", rec.Samples(), ae.Evals(), cfg.Tracer.Len())
	}
	return results, pl.Metrics().Export()
}

// TestObsOnOffSameResults: attaching the observability stack must not
// change what the simulated platform does — same results in the same
// order, same metrics.
func TestObsOnOffSameResults(t *testing.T) {
	offRes, offExp := obsOnOffRun(t, false)
	onRes, onExp := obsOnOffRun(t, true)
	if len(offRes) < 100 {
		t.Fatalf("run delivered %d results, want a busier trace", len(offRes))
	}
	if !reflect.DeepEqual(onRes, offRes) {
		for i := range offRes {
			if i >= len(onRes) || onRes[i] != offRes[i] {
				t.Fatalf("result %d differs (obs on %d results, off %d):\n on: %v\noff: %s",
					i, len(onRes), len(offRes), onRes[min(i, len(onRes)-1)], offRes[i])
			}
		}
		t.Fatalf("obs on delivered %d results, off %d", len(onRes), len(offRes))
	}
	if !reflect.DeepEqual(onExp, offExp) {
		t.Fatalf("metrics differ:\n on: %+v\noff: %+v", onExp, offExp)
	}
}
