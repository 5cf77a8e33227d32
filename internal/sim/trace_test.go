package sim

import (
	"strings"
	"testing"
	"time"
)

func TestTraceLogRecordsSchedulerEvents(t *testing.T) {
	e := NewEngine(1)
	log := e.AttachTraceLog(100)
	e.Go("worker", "", func(p *Proc) {
		p.Sleep(time.Millisecond)
	})
	e.Go("invoke", "JS", func(p *Proc) {})
	e.After(2*time.Millisecond, func() {})
	e.Run()
	entries := log.Entries()
	if len(entries) < 3 { // spawn + 2 resumes + callback
		t.Fatalf("entries = %d", len(entries))
	}
	s := log.String()
	for _, frag := range []string{"spawn", "resume", "callback", "worker\n", "invoke/JS\n"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("trace missing %q:\n%s", frag, s)
		}
	}
	// Timestamps are non-decreasing.
	for i := 1; i < len(entries); i++ {
		if entries[i].At < entries[i-1].At {
			t.Fatal("trace out of order")
		}
	}
}

func TestTraceLogRingDropsOldest(t *testing.T) {
	l := NewTraceLog(3)
	for i := 0; i < 5; i++ {
		l.Record(time.Duration(i), "resume", "p")
	}
	if len(l.Entries()) != 3 || l.Dropped() != 2 {
		t.Fatalf("entries=%d dropped=%d", len(l.Entries()), l.Dropped())
	}
	if l.Entries()[0].At != 2 {
		t.Fatal("wrong entries retained")
	}
	if !strings.Contains(l.String(), "earlier events dropped") {
		t.Fatal("drop notice missing")
	}
}

func TestTracerDetach(t *testing.T) {
	e := NewEngine(1)
	calls := 0
	e.SetTracer(func(time.Duration, string, string) { calls++ })
	e.Go("a", "", func(p *Proc) {})
	e.SetTracer(nil)
	e.Go("b", "", func(p *Proc) {})
	e.Run()
	if calls != 1 { // only a's spawn traced
		t.Fatalf("calls = %d", calls)
	}
}

func TestTraceDoesNotPerturbTiming(t *testing.T) {
	run := func(trace bool) time.Duration {
		e := NewEngine(1)
		if trace {
			e.AttachTraceLog(10)
		}
		e.Go("w", "", func(p *Proc) { p.Sleep(5 * time.Millisecond) })
		e.Run()
		return e.Now()
	}
	if run(false) != run(true) {
		t.Fatal("tracing changed virtual time")
	}
}
