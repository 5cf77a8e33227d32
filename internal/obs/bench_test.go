package obs

import (
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/sim"
)

// nodeShapedRegistry builds a registry shaped like one faas node's:
// ~150 samples in ~65 families — plain and pool-scoped counters,
// gauges, a static summary, and three per-function summary families
// whose members join as functions are first invoked, the e2e one with
// exemplars. It returns the registry and a func that invokes every
// function once more.
func nodeShapedRegistry() (*Registry, func()) {
	reg := NewRegistry()
	var counts [50]int64
	for i := range counts {
		i := i
		reg.CounterFunc(fmt.Sprintf("trenv_c%02d_total", i), "A counter.", nil, func() int64 { return counts[i] })
	}
	for i := 0; i < 10; i++ {
		for _, scope := range []string{"rack", "node"} {
			i := i
			reg.CounterFunc(fmt.Sprintf("trenv_pool%d_total", i), "A pool counter.",
				map[string]string{"pool": "cxl", "scope": scope}, func() int64 { return counts[i] })
		}
	}
	for i := 0; i < 12; i++ {
		v := float64(i)
		reg.GaugeFunc(fmt.Sprintf("trenv_g%02d", i), "A gauge.", nil, func() float64 { return v })
	}
	var batch sim.Histogram
	reg.Histogram("trenv_batch_pages", "A static summary.", nil, &batch)

	type fnHists struct {
		e2e, startup, exec sim.Histogram
		ex                 *ExemplarReservoir
	}
	perFn := map[string]*fnHists{}
	var joined []string
	all := &fnHists{ex: NewExemplarReservoir(nil, 0, "all")}
	for _, fam := range []struct {
		name string
		sel  func(*fnHists) *sim.Histogram
		ex   bool
	}{
		{"trenv_e2e_latency_ms", func(h *fnHists) *sim.Histogram { return &h.e2e }, true},
		{"trenv_startup_latency_ms", func(h *fnHists) *sim.Histogram { return &h.startup }, false},
		{"trenv_exec_latency_ms", func(h *fnHists) *sim.Histogram { return &h.exec }, false},
	} {
		fam := fam
		reg.HistogramMembers(fam.name, "Per-function latency.", Members{
			Len: func() int { return 1 + len(joined) },
			Member: func(i int) Member {
				name, h := "_all", all
				if i > 0 {
					name = joined[i-1]
					h = perFn[name]
				}
				m := Member{Labels: map[string]string{"function": name}, Hist: fam.sel(h)}
				if fam.ex {
					m.Exemplars = func() *ExemplarReservoir { return h.ex }
				}
				return m
			},
		})
	}
	fns := []string{"CH", "CR", "DH", "DS", "IP", "IR", "JS", "PR", "VP", "WP"}
	round := 0
	invoke := func() {
		round++
		for i, fn := range fns {
			h, ok := perFn[fn]
			if !ok {
				h = &fnHists{ex: NewExemplarReservoir(nil, 0, fn)}
				perFn[fn] = h
				joined = append(joined, fn)
			}
			v := float64(10*i + round%7)
			for _, t := range []*fnHists{h, all} {
				t.e2e.Add(v)
				t.startup.Add(v / 2)
				t.exec.Add(v / 2)
				t.ex.Observe(v, fmt.Sprintf("%016x", round*16+i))
			}
			counts[i]++
		}
		batch.Add(float64(round))
	}
	invoke()
	return reg, invoke
}

func TestNodeShapedRegistrySize(t *testing.T) {
	reg, _ := nodeShapedRegistry()
	if n := len(reg.Gather()); n < 140 || n > 160 {
		t.Fatalf("node-shaped registry gathers %d samples, want ~150", n)
	}
}

// TestRecorderSampleSteadyStateAllocatesNothing: once every series is
// compiled and its ring is full, a Sample is reads and stores only.
func TestRecorderSampleSteadyStateAllocatesNothing(t *testing.T) {
	reg, _ := nodeShapedRegistry()
	rec := NewRecorder(reg, ringBlock)
	now := time.Duration(0)
	for i := 0; i < ringBlock; i++ {
		now += DefaultSampleInterval
		rec.Sample(now)
	}
	allocs := testing.AllocsPerRun(100, func() {
		now += DefaultSampleInterval
		rec.Sample(now)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Recorder.Sample allocates %.1f times, want 0", allocs)
	}
}

func BenchmarkRecorderSample(b *testing.B) {
	reg, _ := nodeShapedRegistry()
	rec := NewRecorder(reg, 0)
	now := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += DefaultSampleInterval
		rec.Sample(now)
	}
}

func BenchmarkGather(b *testing.B) {
	reg, _ := nodeShapedRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Gather()
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	reg, invoke := nodeShapedRegistry()
	for i := 0; i < 100; i++ {
		invoke()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
