package selfbench

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/workload"
)

func TestRateGuards(t *testing.T) {
	cases := []struct {
		n       float64
		elapsed time.Duration
		want    float64
	}{
		{10, 0, 0},
		{10, -time.Second, 0},
		{10, 2 * time.Second, 5},
		{0, time.Second, 0},
	}
	for _, c := range cases {
		if got := Rate(c.n, c.elapsed); got != c.want {
			t.Errorf("Rate(%v, %v) = %v, want %v", c.n, c.elapsed, got, c.want)
		}
	}
	if got := perUnit(100, 0); got != 0 {
		t.Errorf("perUnit(100, 0) = %v, want 0", got)
	}
	if got := perUnit(100, -5); got != 0 {
		t.Errorf("perUnit(100, -5) = %v, want 0", got)
	}
	if got := perUnit(100, 4); got != 25 {
		t.Errorf("perUnit(100, 4) = %v, want 25", got)
	}
	if got := overheadPct(1.5, 0); got != 0 {
		t.Errorf("overheadPct(1.5, 0) = %v, want 0 (zero baseline)", got)
	}
	if got := overheadPct(1.2, 1.0); got < 19.99 || got > 20.01 {
		t.Errorf("overheadPct(1.2, 1.0) = %v, want ~20", got)
	}
}

func TestMeasureDerivesReadings(t *testing.T) {
	r := Measure("probe", 7, func() Counts {
		// Allocate something observable and burn a little wall time so
		// every derived reading has a non-degenerate denominator.
		sink := make([][]byte, 0, 64)
		for i := 0; i < 64; i++ {
			sink = append(sink, make([]byte, 1024))
		}
		_ = sink
		time.Sleep(2 * time.Millisecond)
		return Counts{Events: 1000, Invocations: 10, Spans: 20, SimTime: time.Second}
	})
	if r.Name != "probe" || r.Seed != 7 {
		t.Fatalf("identity not carried: %+v", r)
	}
	if r.WallSeconds <= 0 {
		t.Fatalf("wall time not measured: %+v", r)
	}
	if r.EventsPerSec <= 0 || r.InvocationsPerSec <= 0 || r.SpansPerSec <= 0 {
		t.Fatalf("rates not derived: %+v", r)
	}
	if r.Allocs == 0 || r.AllocBytes == 0 {
		t.Fatalf("allocation delta not captured: %+v", r)
	}
	if r.AllocsPerEvent <= 0 || r.BytesPerEvent <= 0 {
		t.Fatalf("per-event allocations not derived: %+v", r)
	}
	if r.WallMSPerSimSec <= 0 {
		t.Fatalf("wall-per-sim-second not derived: %+v", r)
	}
}

func TestSuiteDeterministicCounts(t *testing.T) {
	o := Options{Seed: 3, Scale: 0.02}
	a := RunSuite(o)
	b := RunSuite(o)
	if len(a.Runs) != len(b.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(a.Runs), len(b.Runs))
	}
	for i := range a.Runs {
		ra, rb := a.Runs[i], b.Runs[i]
		if ra.Name != rb.Name {
			t.Fatalf("run %d name %q vs %q", i, ra.Name, rb.Name)
		}
		if ra.Events != rb.Events || ra.Invocations != rb.Invocations ||
			ra.Spans != rb.Spans || ra.SimSeconds != rb.SimSeconds {
			t.Errorf("run %q deterministic counts differ: %+v vs %+v", ra.Name, ra, rb)
		}
		if ra.Events <= 0 {
			t.Errorf("run %q executed no events", ra.Name)
		}
	}
	// The overhead probe's two legs simulate the identical workload.
	var on, off Result
	for _, r := range a.Runs {
		switch r.Name {
		case "w1-obs-on":
			on = r
		case "w1-obs-off":
			off = r
		}
	}
	if on.Invocations == 0 || on.Invocations != off.Invocations {
		t.Fatalf("probe legs diverge: obs-on %d invocations, obs-off %d", on.Invocations, off.Invocations)
	}
	if on.Spans == 0 {
		t.Fatalf("obs-on leg recorded no spans")
	}
	if off.Spans != 0 {
		t.Fatalf("obs-off leg recorded %d spans, want 0", off.Spans)
	}
	if a.Aggregate.EventsPerSec <= 0 || a.Aggregate.AllocsPerEvent <= 0 {
		t.Fatalf("aggregate not derived: %+v", a.Aggregate)
	}
}

// TestMeasurementDoesNotPerturbExports is the determinism-isolation
// contract at the package level: wrapping a seeded run in Measure (GC,
// MemStats reads, wall-clock stamps) must leave its virtual-time
// exports byte-identical to an unmeasured run.
func TestMeasurementDoesNotPerturbExports(t *testing.T) {
	export := func(measured bool) []byte {
		var buf bytes.Buffer
		run := func() Counts {
			cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
			cfg.Seed = 11
			tracer := obs.NewTracer(0)
			cfg.Tracer = tracer
			pl := faas.New(cfg)
			for _, p := range workload.Table4() {
				if err := pl.Register(p); err != nil {
					t.Fatalf("register %s: %v", p.Name, err)
				}
			}
			reg := obs.NewRegistry()
			pl.RegisterMetrics(reg)
			w1 := workload.DefaultW1(fnNames())
			w1.Duration = w1.Duration / 50
			w1.BurstGap = w1.BurstGap / 50
			pl.RunTrace(workload.W1Bursty(rand.New(rand.NewSource(11)), w1))
			if err := obs.WriteFolded(&buf, tracer.Spans()); err != nil {
				t.Fatalf("write folded: %v", err)
			}
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Fatalf("write prometheus: %v", err)
			}
			return Counts{Events: pl.Engine().Events(), SimTime: pl.Engine().Now()}
		}
		if measured {
			Measure("isolation-probe", 11, run)
		} else {
			run()
		}
		return buf.Bytes()
	}
	bare := export(false)
	measured := export(true)
	if len(bare) == 0 {
		t.Fatalf("export produced no bytes")
	}
	if !bytes.Equal(bare, measured) {
		t.Fatalf("measured run perturbed deterministic exports (%d vs %d bytes)", len(bare), len(measured))
	}
}

func TestReportSchemaStable(t *testing.T) {
	rep := RunSuite(Options{Seed: 1, Scale: 0.01})
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, fmt.Sprintf("%q: %q", "schema", Schema)) {
		t.Fatalf("schema marker missing:\n%s", out)
	}
	agg := strings.Index(out, `"aggregate"`)
	runs := strings.Index(out, `"runs"`)
	if agg < 0 || runs < 0 || agg > runs {
		t.Fatalf("aggregate block must precede runs (aggregate@%d, runs@%d)", agg, runs)
	}
	for _, key := range []string{"events_per_sec", "invocations_per_sec", "allocs_per_event", "obs_overhead_pct"} {
		if !strings.Contains(out, `"`+key+`"`) {
			t.Fatalf("gated field %q missing from report:\n%s", key, out)
		}
	}
	if len(rep.Summary()) != len(rep.Runs)+2 {
		t.Fatalf("summary lines = %d, want header + %d runs + aggregate", len(rep.Summary()), len(rep.Runs))
	}
}
