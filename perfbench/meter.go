package main

import (
	"encoding/json"
	"os"
	"runtime"
	"syscall"
	"time"
)

// meter times one repeat from outside the simulator: set-up phases
// (trace generation, construction, registration, attach calls) and the
// RunTrace calls, with the heap allocations the latter make. Host time
// is the process's CPU time, so other tenants of a shared host do not
// count. When spans is set it also records a span around every phase.
type meter struct {
	setupOnly bool // skip RunTrace: time set-up alone
	setupCPU  time.Duration
	runCPU    time.Duration
	mallocs   uint64
	allocated uint64 // bytes
	arrivals  int    // trace arrivals driven through RunTrace
	spans     *spanLog
}

func (m *meter) begin(name string) int { return m.spans.begin(name) }
func (m *meter) end(id int)            { m.spans.end(id) }

// setup runs fn as set-up work: host time before the first simulated
// event.
func (m *meter) setup(name string, fn func()) {
	id := m.begin(name)
	c0 := cpuTime()
	fn()
	m.setupCPU += cpuTime() - c0
	m.end(id)
}

// run runs fn, a RunTrace call driving arrivals invocations, and charges
// its host time and heap allocations to the repeat.
func (m *meter) run(name string, arrivals int, fn func()) {
	if m.setupOnly {
		return
	}
	id := m.begin(name)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c0 := cpuTime()
	fn()
	m.runCPU += cpuTime() - c0
	runtime.ReadMemStats(&after)
	m.mallocs += after.Mallocs - before.Mallocs
	m.allocated += after.TotalAlloc - before.TotalAlloc
	m.arrivals += arrivals
	m.end(id)
}

// cpuTime is the CPU time the process has used, user plus system, over
// all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// span is one benchmark-side interval in host time since the log began.
type span struct {
	Name   string
	ID     int
	Parent int // -1 for a root
	Start  time.Duration
	End    time.Duration
}

// spanLog keeps the benchmark's own spans in memory until the run
// ends. A nil log records nothing.
type spanLog struct {
	t0    time.Time
	spans []span
	open  []int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(name string) int {
	if l == nil {
		return -1
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Start: time.Since(l.t0)})
	l.open = append(l.open, id)
	return id
}

func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].End = time.Since(l.t0)
	l.open = l.open[:len(l.open)-1]
}

// writeChrome writes the spans as a Chrome trace-event file (open it in
// Perfetto or chrome://tracing).
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
