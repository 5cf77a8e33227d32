// Package sim provides a deterministic discrete-event simulation engine.
//
// All TrEnv experiments run on virtual time: simulated processes run on
// a pool of carrier goroutines that the engine resumes one at a time in
// (time, sequence) order, so a given seed always produces bit-identical
// results. The engine also provides counted resources (CPU cores),
// condition signals, and the statistics types (histograms, time-weighted
// gauges) used to report latency distributions and memory curves.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// stopPanic is thrown into parked processes when the engine shuts down so
// their bodies unwind instead of leaking their carriers.
type stopPanic struct{}

// Engine is a deterministic discrete-event scheduler over virtual time.
// It is not safe for concurrent use: events and processes run one at a
// time, interleaved only at explicit yield points (Sleep, Wait, Acquire).
type Engine struct {
	now      time.Duration
	seq      uint64
	queue    eventHeap
	rng      *rand.Rand
	parked   chan struct{} // signaled when the active proc yields or exits
	procs    map[*Proc]struct{}
	idle     []carrier // carriers whose last body returned
	carriers int       // carriers ever started (tests check the pool bound)
	running  bool
	stopped  bool
	events   int64
}

type event struct {
	at   time.Duration
	seq  uint64
	proc *Proc  // resume this process...
	fn   func() // ...or run this callback
}

func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventHeap is a binary min-heap on (at, seq) that stores events by
// value, so scheduling allocates nothing once the slice has grown.
// (at, seq) is a total order, so the pop order is fully determined.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the proc and callback references
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && q[c+1].before(&q[c]) {
				c++
			}
			if !q[c].before(&last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}

func (e *Engine) push(ev event) {
	if e.stopped {
		return // a shut-down engine accepts no new events
	}
	e.seq++
	ev.seq = e.seq
	e.queue.push(ev)
}

// NewEngine returns an engine whose random stream is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:    rand.New(rand.NewSource(seed)),
		parked: make(chan struct{}),
		procs:  make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random stream.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Proc is a simulated process: a body that runs on a carrier goroutine
// only while the engine is blocked waiting for it, giving cooperative,
// deterministic scheduling. A proc gets its carrier at first resume.
type Proc struct {
	eng     *Engine
	kind    string
	subject string
	fn      func(p *Proc)
	c       carrier
	done    bool
}

// A carrier is a long-lived goroutine that runs proc bodies one after
// another, so a new proc costs neither a goroutine nor a fresh stack.
// The engine hands control to it by sending the proc to resume.
type carrier chan *Proc

// Name returns the process's debug name: its kind and subject joined
// with "/", or the kind alone when the subject is empty.
func (p *Proc) Name() string {
	if p.subject == "" {
		return p.kind
	}
	return p.kind + "/" + p.subject
}

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.eng.now }

// Rand returns the engine's deterministic random stream.
func (p *Proc) Rand() *rand.Rand { return p.eng.rng }

// Go spawns fn as a simulated process starting at the current virtual
// time. kind and subject make up its name (see Proc.Name); they are kept
// apart so spawning does not build a string.
func (e *Engine) Go(kind, subject string, fn func(p *Proc)) *Proc {
	return e.At(e.now, kind, subject, fn)
}

// At spawns fn as a simulated process starting at virtual time t, which
// must not be in the past.
func (e *Engine) At(t time.Duration, kind, subject string, fn func(p *Proc)) *Proc {
	if t < e.now {
		panic(fmt.Sprintf("sim: At(%v) is before now (%v)", t, e.now))
	}
	p := &Proc{eng: e, kind: kind, subject: subject, fn: fn}
	e.procs[p] = struct{}{}
	e.push(event{at: t, proc: p})
	return p
}

// After schedules fn to run as a bare callback (not a process) after d.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.push(event{at: e.now + d, fn: fn})
}

// resume hands control to p and blocks until it yields or finishes. A
// proc's first resume gives it an idle carrier, or starts one; a proc
// that Shutdown reaches before it ever ran is retired without running.
func (e *Engine) resume(p *Proc) {
	if p.c == nil {
		if e.stopped {
			p.done = true
			delete(e.procs, p)
			return
		}
		if n := len(e.idle); n > 0 {
			p.c = e.idle[n-1]
			e.idle[n-1] = nil
			e.idle = e.idle[:n-1]
		} else {
			p.c = make(carrier)
			e.carriers++
			go e.carry(p.c)
		}
	}
	p.c <- p
	<-e.parked
}

// carry is a carrier's loop: run the body of the proc it is handed,
// retire the proc, return to the idle pool and hand control back. The
// engine goroutine is blocked in resume throughout, so the carrier may
// touch engine state. Closing the carrier (retireIdle) ends the loop.
func (e *Engine) carry(c carrier) {
	for p := range c {
		runBody(p)
		p.done = true
		delete(e.procs, p)
		e.idle = append(e.idle, c)
		e.parked <- struct{}{}
	}
	e.parked <- struct{}{} // retireIdle waits for the exit
}

// runBody runs p's body, absorbing the stopPanic that unwinds it at
// Shutdown.
func runBody(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stopPanic); !ok {
				panic(r)
			}
		}
	}()
	p.fn(p)
}

// retireIdle stops every idle carrier and waits for each to exit. Only
// procs still parked keep a goroutine once the engine is not running.
func (e *Engine) retireIdle() {
	for _, c := range e.idle {
		close(c)
		<-e.parked
	}
	e.idle = nil
}

// park is called from inside a process body to yield to the engine.
func (p *Proc) park() {
	p.eng.parked <- struct{}{}
	<-p.c
	if p.eng.stopped {
		panic(stopPanic{})
	}
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	e := p.eng
	e.push(event{at: e.now + d, proc: p})
	p.park()
}

// Yield reschedules the process at the current time, letting same-time
// events run first.
func (p *Proc) Yield() { p.Sleep(0) }

// Park suspends the process indefinitely; some other component must
// Resume it. Building block for admission control.
func (p *Proc) Park() { p.park() }

// Resume schedules a parked process to continue at the current virtual
// time. Resuming a process that is not parked corrupts the simulation;
// pair every Resume with exactly one Park.
func (e *Engine) Resume(p *Proc) {
	if p.done {
		return
	}
	e.push(event{at: e.now, proc: p})
}

// Run executes events until the queue is empty or the engine is shut down.
func (e *Engine) Run() { e.RunUntil(-1) }

// RunUntil executes events with timestamps <= deadline (deadline < 0 means
// run to exhaustion) and advances Now to deadline if it is later than the
// last event. An event scheduled exactly at the deadline runs; only events
// strictly after it are left queued.
func (e *Engine) RunUntil(deadline time.Duration) {
	e.run(deadline)
	if deadline >= 0 && deadline > e.now {
		e.now = deadline
	}
}

// run is the scheduler hot loop behind RunUntil.
func (e *Engine) run(deadline time.Duration) {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	defer func() {
		e.running = false
		e.retireIdle()
	}()
	for len(e.queue) > 0 && !e.stopped {
		if deadline >= 0 && e.queue[0].at > deadline {
			break
		}
		ev := e.queue.pop()
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		e.events++
		if proc := ev.proc; proc != nil {
			if !proc.done {
				e.resume(proc)
			}
			continue
		}
		ev.fn()
	}
	if e.stopped {
		e.unwind()
	}
}

// Shutdown unwinds every parked process and drops all pending events.
// After Shutdown the engine must not be reused.
//
// Shutdown may also be called from inside a running process or callback:
// in that case it marks the engine stopped and drops the queue
// immediately, and the run loop unwinds the remaining parked processes
// once the calling process yields or returns. (Unwinding synchronously
// from inside a process would deadlock: the engine goroutine is blocked
// waiting for that process to park, so it cannot arbitrate a resume of
// any other process.)
func (e *Engine) Shutdown() {
	e.stopped = true
	e.queue = nil
	if e.running {
		return // run loop performs the unwind after the active proc yields
	}
	e.unwind()
	e.retireIdle()
}

// unwind resumes every parked process so park() observes stopped and
// panics with stopPanic, unwinding the body; procs that never ran are
// retired without a carrier.
func (e *Engine) unwind() {
	for p := range e.procs {
		if !p.done {
			e.resume(p)
		}
	}
}

// Pending reports the number of queued events (for tests).
func (e *Engine) Pending() int { return len(e.queue) }

// Events returns how many events the engine has executed so far. The
// counter is an int64 (one integer increment per event on the hot loop,
// no allocation) so event counts cannot truncate on 32-bit platforms
// during long runs, and wall-clock self-benchmarks can derive events/sec
// without touching virtual time or the deterministic event order.
func (e *Engine) Events() int64 { return e.events }
