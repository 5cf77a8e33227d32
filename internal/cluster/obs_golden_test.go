package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/alert"
	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/workload"
)

// The golden hashes below pin every observability export of two
// fixed-seed runs: the flight recorder's JSON and CSV, the registry's
// Prometheus text and the alert engine's snapshot. They were recorded
// with the registry that re-gathered and re-rendered every series on
// each read, so they pin the compiled handles to its exact output.
var obsGolden = map[string]map[string]string{
	"node": {
		"recorder.json": "b2831c62be8afab5c2a576b763c9519822b0fc57037dbf294dbb16279d5755c8",
		"recorder.csv":  "bcd296d2898199b6c1833a3618682c7e730f39eca12ace6a7a4313cbb229afd2",
		"metrics.prom":  "22e3b7c667bea03068b5713aa8f3822624196b9a187c00b8281935f10272ca4a",
		"alerts.json":   "acc888083663026781565250633fb2fe2db7a48b63ea49d3611ef5415c5f3ee3",
	},
	"cluster": {
		"recorder.json": "3312df1c14d6f97fc879e731724be71bf3c5ff50687227d2330f2fd5d117f02d",
		"recorder.csv":  "5de28fac8af0495ff950bedb70cb430d5a2ed3f36fb0b9d4be9d5e32c0524cd9",
		"metrics.prom":  "92c2b11466afbec5ea81cc74eb7173c4fb33d50a994fa843c289f424dd069857",
		"alerts.json":   "07c2303a6546d17d5e9a2a5eaf9c245bb8591d584f3b5cd1ca71eefc11d59d68",
	},
}

func goldenTrace(seed int64) workload.Trace {
	var fns []string
	for _, p := range workload.Table4() {
		fns = append(fns, p.Name)
	}
	return workload.W1Bursty(rand.New(rand.NewSource(seed)), workload.W1Config{
		Functions: fns,
		Duration:  2 * time.Minute,
		BurstGap:  20 * time.Second,
		BurstSize: 3,
		BurstSpan: 2 * time.Second,
	})
}

type obsExports struct {
	rec *obs.Recorder
	reg *obs.Registry
	ae  *alert.Engine
}

func (x obsExports) hashes(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for name, write := range map[string]func(io.Writer) error{
		"recorder.json": x.rec.WriteJSON,
		"recorder.csv":  x.rec.WriteCSV,
		"metrics.prom":  x.reg.WritePrometheus,
		"alerts.json":   x.ae.WriteJSON,
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		out[name] = hex.EncodeToString(sum[:])
	}
	return out
}

// goldenNode runs one TrEnv-CXL node with tracer, registry, recorder
// and the default alert rules.
func goldenNode(t *testing.T) obsExports {
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	cfg.Seed = 11
	cfg.Tracer = obs.NewTracer(0)
	pl := faas.New(cfg)
	for _, p := range workload.Table4() {
		if err := pl.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	pl.RegisterMetrics(reg)
	obs.RegisterTracerDrops(reg, nil, cfg.Tracer)
	rec := obs.NewRecorder(reg, 0)
	pl.AttachRecorder(rec, 0)
	ae := alert.New(alert.DefaultRules())
	ae.RegisterMetrics(reg, nil)
	pl.AttachAlerts(ae)
	pl.RunTrace(goldenTrace(11))
	return obsExports{rec, reg, ae}
}

// goldenCluster runs two one-node racks with an SLO target and a fault
// schedule, so the SLO, fault and per-rack families are all live.
func goldenCluster(t *testing.T) obsExports {
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	cfg.Seed = 12
	cfg.Tracer = obs.NewTracer(0)
	cfg.SLOTarget = 500 * time.Millisecond
	c, err := NewMultiRack(2, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range workload.Table4() {
		if err := c.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	sc, err := fault.ParseSpec("outage:cxl:30s-50s,flaky:rdma:0.2")
	if err != nil {
		t.Fatal(err)
	}
	c.AttachChaos(fault.NewInjector(c.Engine(), 12, sc))
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	rec := obs.NewRecorder(reg, 0)
	c.AttachRecorder(rec, 0)
	ae := alert.New(alert.DefaultRules())
	ae.RegisterMetrics(reg, nil)
	c.AttachAlerts(ae)
	c.RunTrace(goldenTrace(12))
	return obsExports{rec, reg, ae}
}

func TestObsExportsGolden(t *testing.T) {
	for run, build := range map[string]func(*testing.T) obsExports{
		"node":    goldenNode,
		"cluster": goldenCluster,
	} {
		got := build(t).hashes(t)
		for name, want := range obsGolden[run] {
			if got[name] != want {
				t.Errorf("%s %s sha256 = %s, want %s", run, name, got[name], want)
			}
		}
	}
}
