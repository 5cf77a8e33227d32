package prefetch

import (
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

const (
	regionPages = 300 // the restored heap
	touchPages  = 200 // the working set each invocation reads
)

// fixture is one node restoring the same function image repeatedly: a
// heap region lazily backed by RDMA, and the image's working-set log.
type fixture struct {
	eng  *sim.Engine
	rdma *mem.Pool
	log  *pagetable.WorkingSetLog
	pf   *Prefetcher
}

func newFixture(seed int64, cfg Config, cache *mem.PromotionCache) *fixture {
	return &fixture{
		eng:  sim.NewEngine(seed),
		rdma: mem.NewPool(mem.RDMA, 0, mem.DefaultLatencyModel()),
		log:  &pagetable.WorkingSetLog{},
		pf:   New(cache, cfg),
	}
}

// restore attaches a fresh copy of the image, runs the prefetch pass and
// then the invocation's reads, returning the pass summary, the access
// result and the restored heap.
func (f *fixture) restore(t *testing.T) (*Summary, pagetable.AccessResult, *pagetable.VMA) {
	t.Helper()
	as := pagetable.NewAddressSpace(mem.NewTracker("node", 0), mem.DefaultLatencyModel())
	v, err := as.AddVMA("heap", 0x10000, regionPages, pagetable.Read|pagetable.Write, pagetable.Anon,
		f.rdma, 0, pagetable.RemoteLazy)
	if err != nil {
		t.Fatal(err)
	}
	res := &snapshot.Restored{Snapshot: &snapshot.Snapshot{Function: "fn"}, Spaces: []*pagetable.AddressSpace{as}}
	var sum *Summary
	var acc pagetable.AccessResult
	f.eng.Go("invoke", func(p *sim.Proc) {
		sum = f.pf.OnRestore(p, f.log, res)
		if acc, err = as.Access(p.Rand(), v, touchPages, 0); err != nil {
			t.Error(err)
		}
	})
	f.eng.Run()
	return sum, acc, v
}

func TestRecordSealReplayTurnsDemandFaultsIntoHits(t *testing.T) {
	f := newFixture(1, Config{}, nil)
	first, acc, _ := f.restore(t)
	if first == nil || !first.Recording {
		t.Fatalf("first restore summary = %+v, want a recording pass", first)
	}
	if acc.FetchedPages != touchPages {
		t.Fatalf("recording run fetched %d pages, want %d demand fetches", acc.FetchedPages, touchPages)
	}
	f.log.Seal()
	if got := f.log.Entries(); len(got) != 1 || got[0] != (pagetable.WSFetch{Region: "heap", First: 0, Pages: touchPages, Pool: "rdma"}) {
		t.Fatalf("recorded working set = %+v", got)
	}

	replay, acc, v := f.restore(t)
	wantBatches := (touchPages + DefaultBatchPages - 1) / DefaultBatchPages
	if replay.Recording || replay.Batches != wantBatches || replay.Pages != touchPages || replay.Pool != "rdma" || replay.Err != nil {
		t.Fatalf("replay summary = %+v, want %d batches of rdma covering %d pages", replay, wantBatches, touchPages)
	}
	if replay.Latency <= 0 {
		t.Fatalf("replay latency = %v", replay.Latency)
	}
	if acc.PrefetchHits != touchPages || acc.FetchedPages != 0 || acc.MajorFaults != 0 {
		t.Fatalf("demand access after replay = %+v, want %d prefetch hits and no fetches", acc, touchPages)
	}
	if n := v.CountInRange(pagetable.RemoteLazy, touchPages, regionPages-touchPages); n != regionPages-touchPages {
		t.Fatalf("untouched tail has %d lazy pages, want %d", n, regionPages-touchPages)
	}
}

func TestHotRunIsPromotedNotFetched(t *testing.T) {
	cache := mem.NewPromotionCache(regionPages*mem.PageSize, mem.DefaultLatencyModel())
	f := newFixture(1, Config{PromoteAfter: 2}, cache)
	f.restore(t) // records
	f.log.Seal()
	if first, _, _ := f.restore(t); first.Batches == 0 || first.PromotedPages != 0 {
		t.Fatalf("first replay = %+v, want batches and no promotion below PromoteAfter", first)
	}
	batchesBefore := f.rdma.BatchFetches()
	sum, acc, v := f.restore(t)
	if sum.PromotedPages != touchPages || sum.Batches != 0 || sum.Pages != 0 {
		t.Fatalf("second replay = %+v, want the run promoted (%d pages) and no batches", sum, touchPages)
	}
	if f.rdma.BatchFetches() != batchesBefore {
		t.Fatal("a promoted run was batch-fetched")
	}
	if v.PoolAt(0) != cache.Pool() || v.CountInRange(pagetable.RemoteDirect, 0, touchPages) != touchPages {
		t.Fatal("promoted pages are not direct-mapped at the promotion cache")
	}
	if acc.DirectPages != touchPages || acc.FetchedPages != 0 {
		t.Fatalf("access after promotion = %+v, want %d direct pages", acc, touchPages)
	}
}

func TestSameSeedReplaysAreIdentical(t *testing.T) {
	run := func() []Summary {
		cache := mem.NewPromotionCache(regionPages*mem.PageSize, mem.DefaultLatencyModel())
		f := newFixture(7, Config{BatchPages: 48, PromoteAfter: 3}, cache)
		f.restore(t)
		f.log.Seal()
		var out []Summary
		for i := 0; i < 4; i++ {
			sum, _, _ := f.restore(t)
			out = append(out, *sum)
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed replays differ:\n%+v\n%+v", a, b)
	}
}
