package sim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkEngineHotLoop times the bare scheduler with no platform on
// top: 16 procs each sleeping 6,000 pseudo-random 1-50 µs intervals,
// plus 6,000 After callbacks. One op is one engine run of ~100k events.
func BenchmarkEngineHotLoop(b *testing.B) {
	const procs, iters = 16, 6000
	var events int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := NewEngine(1)
		for p := 0; p < procs; p++ {
			eng.Go(fmt.Sprintf("hot-%d", p), func(p *Proc) {
				for j := 0; j < iters; j++ {
					p.Sleep(time.Duration(1+p.Rand().Intn(50)) * time.Microsecond)
				}
			})
		}
		for j := 0; j < iters; j++ {
			eng.After(time.Duration(j)*time.Microsecond, func() {})
		}
		eng.Run()
		events += eng.Events()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
