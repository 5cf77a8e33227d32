package sim

import (
	"runtime"
	"testing"
	"time"
)

// waitGoroutines waits until no more than want goroutines are alive. A
// retired carrier signals the engine just before its goroutine ends, so
// the count is polled against a deadline.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive, want %d: carriers leaked", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// Run keeps no goroutine behind once every proc has finished.
func TestCarriersExitAfterRun(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	ran := 0
	for i := 0; i < 1000; i++ {
		e.At(time.Duration(i)*time.Millisecond, "short", "", func(p *Proc) {
			p.Sleep(time.Microsecond)
			ran++
		})
	}
	e.Run()
	if ran != 1000 {
		t.Fatalf("ran %d procs, want 1000", ran)
	}
	waitGoroutines(t, base)
}

// Shutdown unwinds parked procs, retires procs that never ran without
// running their bodies, and leaves no goroutine behind, whether it is
// called from outside the engine or from inside a proc.
func TestCarriersExitAfterShutdown(t *testing.T) {
	for _, inside := range []bool{false, true} {
		base := runtime.NumGoroutine()
		e := NewEngine(1)
		cleanups, started := 0, 0
		for i := 0; i < 8; i++ {
			e.Go("stuck", "", func(p *Proc) {
				defer func() { cleanups++ }()
				p.Park() // never woken
			})
			e.At(time.Hour, "late", "", func(p *Proc) { started++ })
		}
		if inside {
			e.At(time.Second, "stopper", "", func(p *Proc) { p.Engine().Shutdown() })
			e.Run()
		} else {
			e.RunUntil(time.Second)
			e.Shutdown()
		}
		if cleanups != 8 {
			t.Fatalf("inside=%v: %d deferred cleanups ran, want 8", inside, cleanups)
		}
		if started != 0 {
			t.Fatalf("inside=%v: %d never-started bodies ran after Shutdown", inside, started)
		}
		waitGoroutines(t, base)
	}
}

// Carriers are reused: the pool grows to the peak number of procs alive
// at once, not to the number of procs spawned.
func TestCarrierPoolBoundedByPeakConcurrency(t *testing.T) {
	e := NewEngine(1)
	live, peak := 0, 0
	const procs = 1000
	for i := 0; i < procs; i++ {
		e.At(time.Duration(i)*time.Microsecond, "short", "", func(p *Proc) {
			live++
			if live > peak {
				peak = live
			}
			p.Sleep(time.Duration(1+p.Rand().Intn(10)) * time.Microsecond)
			live--
		})
	}
	e.Run()
	if peak == 0 || peak >= procs/10 {
		t.Fatalf("peak concurrency %d: workload does not exercise reuse", peak)
	}
	if e.carriers > peak {
		t.Fatalf("started %d carriers for %d procs, want at most the peak concurrency %d", e.carriers, procs, peak)
	}
}
