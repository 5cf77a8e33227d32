package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestQueueFIFOAcrossProcesses(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue("jobs")
	var got []int
	for i := 0; i < 3; i++ {
		e.Go("worker", "", func(p *Proc) {
			for j := 0; j < 2; j++ {
				got = append(got, q.Pop(p).(int))
			}
		})
	}
	e.Go("producer", "", func(p *Proc) {
		for i := 0; i < 6; i++ {
			p.Sleep(time.Millisecond)
			q.Push(e, i)
		}
	})
	e.Run()
	if len(got) != 6 {
		t.Fatalf("received %d items", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("items out of order: %v", got)
		}
	}
	pushes, pops := q.Stats()
	if pushes != 6 || pops != 6 {
		t.Fatalf("stats %d/%d", pushes, pops)
	}
}

func TestQueuePushBeforePop(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue("q")
	q.Push(e, "a")
	q.Push(e, "b")
	if q.Len() != 2 {
		t.Fatalf("len = %d", q.Len())
	}
	var first any
	e.Go("c", "", func(p *Proc) { first = q.Pop(p) })
	e.Run()
	if first != "a" {
		t.Fatalf("first = %v", first)
	}
	if v, ok := q.TryPop(); !ok || v != "b" {
		t.Fatalf("trypop = %v %v", v, ok)
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("trypop on empty succeeded")
	}
}

func TestQueueReceiverParksUntilPush(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue("q")
	var at time.Duration
	e.Go("consumer", "", func(p *Proc) {
		q.Pop(p)
		at = p.Now()
	})
	e.After(5*time.Millisecond, func() { q.Push(e, 1) })
	e.Run()
	if at != 5*time.Millisecond {
		t.Fatalf("consumer woke at %v", at)
	}
}

func TestWaitGroupBasics(t *testing.T) {
	e := NewEngine(1)
	var wg WaitGroup
	wg.Add(3)
	done := false
	e.Go("waiter", "", func(p *Proc) {
		wg.Wait(p)
		done = p.Now() == 3*time.Millisecond
	})
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * time.Millisecond
		e.After(d, func() { wg.Done(e) })
	}
	e.Run()
	if !done {
		t.Fatal("waiter did not wake exactly when the last task finished")
	}
	if wg.Count() != 0 {
		t.Fatalf("count = %d", wg.Count())
	}
}

func TestWaitGroupImmediate(t *testing.T) {
	e := NewEngine(1)
	var wg WaitGroup
	ran := false
	e.Go("w", "", func(p *Proc) {
		wg.Wait(p) // zero count: no park
		ran = true
	})
	e.Run()
	if !ran {
		t.Fatal("Wait on zero count blocked")
	}
}

func TestWaitGroupMisusePanics(t *testing.T) {
	var wg WaitGroup
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative Add did not panic")
			}
		}()
		wg.Add(-1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Done without Add did not panic")
			}
		}()
		wg.Done(NewEngine(1))
	}()
}

// Property: for any push/pop interleaving, pops return pushed values in
// order and conservation holds.
func TestQueueConservationProperty(t *testing.T) {
	f := func(pushCounts []uint8) bool {
		e := NewEngine(1)
		q := NewQueue("q")
		total := 0
		for _, c := range pushCounts {
			total += int(c % 5)
		}
		var got []int
		e.Go("consumer", "", func(p *Proc) {
			for i := 0; i < total; i++ {
				got = append(got, q.Pop(p).(int))
			}
		})
		e.Go("producer", "", func(p *Proc) {
			n := 0
			for _, c := range pushCounts {
				p.Sleep(time.Microsecond)
				for i := 0; i < int(c%5); i++ {
					q.Push(e, n)
					n++
				}
			}
		})
		e.Run()
		if len(got) != total {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
