package pagetable

import (
	"fmt"
	"time"

	"repro/internal/mem"
)

// WSFetch is one working-set log record: a contiguous run of one
// region's pages that the first run demand-fetched, in fault order.
// Pool names the backend kind that served the run ("rdma", "nas", ...).
type WSFetch struct {
	Region string
	First  int
	Pages  int
	Pool   string
}

// WorkingSetLog captures the order in which a function's first run
// pulled remote pages — the REAP insight: the pages (and order) a
// function touches are stable across invocations, so the first run's
// fault log is a prefetch plan for every later one. The log is keyed
// per template (one recording per rack-shared image) and is strictly
// append-ordered by the deterministic engine, so two same-seed first
// runs record byte-identical logs.
//
// Lifecycle: the first restore against an unsealed log attaches it in
// recording mode (StartRecording); the platform seals it when that
// invocation completes; every later restore replays it. Once sealed
// the log is immutable.
type WorkingSetLog struct {
	entries   []WSFetch
	recording bool
	sealed    bool
}

// Entries returns the recorded fetch runs in fault order. Callers must
// not mutate the returned slice.
func (l *WorkingSetLog) Entries() []WSFetch { return l.entries }

// Pages returns the total pages across recorded runs.
func (l *WorkingSetLog) Pages() int {
	var n int
	for _, e := range l.entries {
		n += e.Pages
	}
	return n
}

// Sealed reports whether recording has finished; a sealed log is the
// prefetcher's replay source.
func (l *WorkingSetLog) Sealed() bool { return l.sealed }

// Recording reports whether a first run is currently writing the log.
func (l *WorkingSetLog) Recording() bool { return l.recording }

// StartRecording claims the log for a first run. Only one recorder is
// admitted (concurrent first invocations run unassisted); recording a
// sealed log is refused.
func (l *WorkingSetLog) StartRecording() bool {
	if l.sealed || l.recording {
		return false
	}
	l.recording = true
	return true
}

// Seal freezes the log: recording stops and replays may begin.
func (l *WorkingSetLog) Seal() {
	l.recording = false
	l.sealed = true
}

// AbortRecording abandons a first run that failed mid-recording: the
// partial log is dropped and a later first run may claim recording
// again. No-op once sealed.
func (l *WorkingSetLog) AbortRecording() {
	if l.sealed {
		return
	}
	l.recording = false
	l.entries = nil
}

// active reports whether accesses should record into the log.
func (l *WorkingSetLog) active() bool { return l.recording && !l.sealed }

// record appends one fetched run, merging with the previous entry when
// it extends the same region/pool stretch (neighbouring runs of one
// access, or the write-prefix and read-suffix halves of one access).
func (l *WorkingSetLog) record(region string, first, pages int, pool string) {
	if n := len(l.entries); n > 0 {
		last := &l.entries[n-1]
		if last.Region == region && last.Pool == pool && first == last.First+last.Pages {
			last.Pages += pages
			return
		}
	}
	l.entries = append(l.entries, WSFetch{Region: region, First: first, Pages: pages, Pool: pool})
}

// SetWorkingSetLog attaches a log that subsequent accesses record
// first-run fetch runs into (when the log is in recording mode). Pass
// nil to detach.
func (as *AddressSpace) SetWorkingSetLog(l *WorkingSetLog) { as.wslog = l }

// SetClock supplies the current virtual time, used to charge the
// residual wait when a demand access lands on a page whose prefetch
// batch is still in flight. Without a clock in-flight pages cost only
// their minor-fault wake.
func (as *AddressSpace) SetClock(clock func() time.Duration) { as.clock = clock }

// MarkInFlight delivers pages [first, first+count) of v from a batched
// prefetch landing at virtual time readyAt: still-lazy pages flip to
// Local (their DRAM is claimed now) but remember the batch deadline,
// so a demand access before readyAt parks on the batch — charging the
// remaining wait plus a minor-fault wake — instead of issuing its own
// fetch. Pages not in RemoteLazy state are skipped. Returns the number
// of pages marked.
func (as *AddressSpace) MarkInFlight(v *VMA, first, count int, readyAt time.Duration) (int, error) {
	if first < 0 || count <= 0 || first+count > v.Pages() {
		return 0, fmt.Errorf("pagetable: MarkInFlight [%d,%d) outside VMA %q", first, first+count, v.Name)
	}
	marked := v.CountInRange(RemoteLazy, first, count)
	if marked == 0 {
		return 0, nil
	}
	if err := as.allocLocal(int64(marked) * mem.PageSize); err != nil {
		return 0, err
	}
	v.update(first, first+count, func(r *run, _, n int) {
		if r.state == RemoteLazy {
			r.flying, r.ready = true, readyAt
			v.setState(r, Local, n)
		}
	})
	as.stats.PrefetchedPages += int64(marked)
	if as.sink != nil {
		as.sink.PrefetchedPages += int64(marked)
	}
	return marked, nil
}

// PromoteRange redirects still-lazy pages [first, first+count) of v at
// cache, a byte-addressable promotion-cache pool: they become
// RemoteDirect, so later reads cost a direct-access hit instead of a
// demand fetch round trip (writes still CoW into local DRAM). Pages
// already local or unmapped are skipped. Returns the number of pages
// promoted.
func (as *AddressSpace) PromoteRange(v *VMA, first, count int, cache *mem.Pool) (int, error) {
	if cache == nil || !cache.Kind().ByteAddressable() {
		return 0, fmt.Errorf("pagetable: PromoteRange requires a byte-addressable cache pool")
	}
	if first < 0 || count <= 0 || first+count > v.Pages() {
		return 0, fmt.Errorf("pagetable: PromoteRange [%d,%d) outside VMA %q", first, first+count, v.Name)
	}
	var promoted int
	v.update(first, first+count, func(r *run, _, n int) {
		if r.state == RemoteLazy {
			r.pool = cache
			v.setState(r, RemoteDirect, n)
			promoted += n
		}
	})
	return promoted, nil
}
