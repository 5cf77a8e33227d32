package sim

import (
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
			eng.Go("hot", "", func(p *Proc) {
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

// spawnSink keeps the stack frame in spawnBody from being optimised away.
var spawnSink byte

// spawnBody touches a ~16 KB stack frame, as an invocation's call chain
// does, so a proc on a fresh goroutine has to grow its stack.
//
//go:noinline
func spawnBody(seed byte) byte {
	var frame [16 << 10]byte // zeroed on entry: the whole frame is written
	frame[int(seed)*61] = seed + 1
	return frame[len(frame)-1-int(seed)]
}

// BenchmarkEngineSpawn times the spawn-heavy shape of a trace replay:
// 100k short procs, arriving 1 µs apart, each touching a ~16 KB stack
// frame and sleeping once for 1-50 µs, so about 50 are alive at a time.
// One op is one engine run; ns/proc is wall time per spawned proc.
func BenchmarkEngineSpawn(b *testing.B) {
	const procs = 100000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := NewEngine(1)
		for j := 0; j < procs; j++ {
			eng.At(time.Duration(j)*time.Microsecond, "spawn", "", func(p *Proc) {
				spawnSink = spawnBody(spawnSink)
				p.Sleep(time.Duration(1+p.Rand().Intn(50)) * time.Microsecond)
			})
		}
		eng.Run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*procs), "ns/proc")
}
