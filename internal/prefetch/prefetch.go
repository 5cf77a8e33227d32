// Package prefetch replays recorded first-run working sets as batched
// remote fetches racing the invocation.
//
// TrEnv's RDMA path maps template pages invalid and fetches them
// lazily, so a cold start's critical path is a train of one-page-per-
// round-trip demand faults. The prefetcher removes most of them with
// two mechanisms layered on the page table's working-set machinery:
//
//   - Batched replay: the first run against a template records its
//     fault order into the image's pagetable.WorkingSetLog; every
//     later restore replays that log through mem.Pool.FetchBatch —
//     one doorbell round trip amortized over up to Config.BatchPages
//     pages — concurrently with execution. Replayed pages are marked
//     in flight (pagetable.AddressSpace.MarkInFlight), so a demand
//     fault that outruns its batch parks on the batch deadline instead
//     of issuing a duplicate fetch.
//   - Hot promotion: a run whose cross-invocation replay count crosses
//     Config.PromoteAfter moves into the node's capacity-bounded
//     direct-access cache (mem.PromotionCache, LRU): later attaches
//     redirect the run there (pagetable.AddressSpace.PromoteRange) and
//     repeat RDMA faults become CXL-cost direct hits.
//
// Everything is driven by engine virtual time and the engine rng, so
// same-seed runs with prefetch enabled stay byte-identical.
package prefetch

import (
	"strconv"
	"time"

	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Config tunes the prefetcher.
type Config struct {
	// BatchPages caps the pages covered by one doorbell-style batched
	// fetch (<= 0: DefaultBatchPages).
	BatchPages int
	// PromoteAfter is the cross-invocation replay count at which a run
	// is promoted into the direct-access cache (0 disables promotion).
	PromoteAfter int
}

// DefaultBatchPages is the doorbell batch size: 64 pages (256 KB)
// keeps a batch one work request while amortizing the round trip ~64x.
const DefaultBatchPages = 64

func (c Config) batchPages() int {
	if c.BatchPages <= 0 {
		return DefaultBatchPages
	}
	return c.BatchPages
}

// Summary reports what one restore's prefetch pass did, for spans and
// metrics. Recording passes set Recording and nothing else.
type Summary struct {
	// Recording marks the template's first run: the invocation records
	// the working-set log instead of replaying it.
	Recording bool
	// Batches/Pages count the batched fetches issued and the pages they
	// cover; Latency is the last batch's completion offset from launch
	// (batches pipeline on one queue, so it is also the total transfer
	// time the invocation races).
	Batches int
	Pages   int
	Latency time.Duration
	// Pool names the kind serving the most replayed pages.
	Pool string
	// PromotedPages counts pages redirected at the promotion cache
	// during this pass (already direct-access, not fetched).
	PromotedPages int
	// Err is the first batch failure (injected fault), after which the
	// replay stops and remaining pages fall back to demand faults.
	Err error
}

// Prefetcher replays working-set logs for one node and owns the node's
// promotion cache and per-run replay counts. It is engine-deterministic
// and must only be used from simulated processes.
type Prefetcher struct {
	cfg    Config
	cache  *mem.PromotionCache
	counts map[string]int // replays per promotion-run key
}

// New creates a prefetcher; cache may be nil to disable promotion even
// when Config.PromoteAfter is set.
func New(cache *mem.PromotionCache, cfg Config) *Prefetcher {
	return &Prefetcher{cfg: cfg, cache: cache, counts: make(map[string]int)}
}

// Cache returns the node's promotion cache (nil when promotion is off).
func (pf *Prefetcher) Cache() *mem.PromotionCache { return pf.cache }

// runKey names a recorded run for promotion accounting: the template's
// working set is rack-stable, so function/region/first identifies the
// same pages across restores.
func runKey(fn string, e pagetable.WSFetch) string {
	return fn + "/" + e.Region + "#" + strconv.Itoa(e.First)
}

// OnRestore runs the prefetch pass for one freshly restored instance.
// With an unsealed log it claims recording for the first run (attaching
// the recorder to the restored spaces); with a sealed log it replays
// the recorded runs as batched fetches racing the invocation, and
// promotes runs that crossed the promotion threshold. Returns nil when
// there is nothing to do (no log, or another instance is recording).
//
// The caller seals the log once the recording invocation completes.
func (pf *Prefetcher) OnRestore(p *sim.Proc, log *pagetable.WorkingSetLog, res *snapshot.Restored) *Summary {
	if pf == nil || log == nil || res == nil {
		return nil
	}
	// In-flight waits are charged against virtual time on every space
	// the prefetcher may touch, recording or replaying.
	res.SetClock(p.Engine().Now)
	if !log.Sealed() {
		if !log.StartRecording() {
			return nil // another first run is recording; run unassisted
		}
		res.SetWorkingSetLog(log)
		return &Summary{Recording: true}
	}
	sum := &Summary{}
	fn := res.Snapshot.Function
	now := p.Now()
	var cum time.Duration // batches pipeline on one queue pair
	poolPages := map[string]int{}
	for _, e := range log.Entries() {
		as, v := res.Region(e.Region)
		if as == nil {
			continue
		}
		// Promotion first: a hot-enough run moves to the direct-access
		// cache and needs no batch at all.
		if pf.cache != nil && pf.cfg.PromoteAfter > 0 {
			key := runKey(fn, e)
			pf.counts[key]++
			hot := pf.cache.Lookup(key) // touches LRU, counts the hit
			if !hot && pf.counts[key] >= pf.cfg.PromoteAfter {
				hot = pf.cache.Promote(key, e.Pages)
			}
			if hot {
				if n, err := as.PromoteRange(v, e.First, e.Pages, pf.cache.Pool()); err == nil {
					sum.PromotedPages += n
				}
				continue // promoted runs never batch-fetch
			}
		}
		pool := v.PoolAt(e.First)
		if pool == nil {
			continue
		}
		// Replay the run as doorbell batches. Each batch prices one
		// round trip plus streaming, retrying as a unit under the
		// pool's fault policy; a failed batch aborts the replay and
		// leaves the rest to demand faults.
		for off := 0; off < e.Pages; off += pf.cfg.batchPages() {
			n := pf.cfg.batchPages()
			if off+n > e.Pages {
				n = e.Pages - off
			}
			lazy := v.CountInRange(pagetable.RemoteLazy, e.First+off, n)
			if lazy == 0 {
				continue // already resident (or promoted); nothing to move
			}
			d, _, err := pool.FetchBatch(p.Rand(), lazy)
			if err != nil {
				sum.Err = err
				break
			}
			cum += d
			marked, merr := as.MarkInFlight(v, e.First+off, n, now+cum)
			if merr != nil {
				sum.Err = merr
				break
			}
			if marked > 0 {
				sum.Batches++
				sum.Pages += marked
				poolPages[pool.Kind().String()] += marked
				// The batch occupies the pool's queue until it lands,
				// so concurrent demand fetches (and later batches of
				// this replay) see its contention.
				pool.BeginFetch()
				p.Engine().After(cum, pool.EndFetch)
			}
		}
		if sum.Err != nil {
			break
		}
	}
	sum.Latency = cum
	best := 0
	for kind, n := range poolPages {
		if n > best || (n == best && kind < sum.Pool) {
			best = n
			sum.Pool = kind
		}
	}
	return sum
}
