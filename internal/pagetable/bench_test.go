package pagetable

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/mem"
)

// benchPages is a 16 MB region, the size of a small function's heap.
const benchPages = 4096

// benchAccess times one Access of read/write pages over a fresh region
// in state init per iteration; pool backs remote states.
func benchAccess(b *testing.B, pool *mem.Pool, init State, read, write int) {
	tr := mem.NewTracker("node", 0)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		as := NewAddressSpace(tr, mem.DefaultLatencyModel())
		v, err := as.AddVMA("img", 0, benchPages, Read|Write, Anon, pool, 0, init)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := as.Access(rng, v, read, write); err != nil {
			b.Fatal(err)
		}
		as.ReleaseAll()
	}
}

// BenchmarkAccessDirectRead is the steady state of a CXL-backed region:
// reads of write-protected pool pages, no fault and no state change.
func BenchmarkAccessDirectRead(b *testing.B) {
	as := NewAddressSpace(mem.NewTracker("node", 0), mem.DefaultLatencyModel())
	v, _ := as.AddVMA("img", 0, benchPages, Read|Write, Anon, cxlPool(), 0, RemoteDirect)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := as.Access(rng, v, benchPages, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessCoWWrite writes a quarter of a fresh CXL region and
// reads the rest: the write prefix takes copy-on-write faults.
func BenchmarkAccessCoWWrite(b *testing.B) {
	benchAccess(b, cxlPool(), RemoteDirect, benchPages, benchPages/4)
}

// BenchmarkAccessLazyFetch reads a fresh RDMA region: every page is a
// major fault served by one contended batch fetch.
func BenchmarkAccessLazyFetch(b *testing.B) {
	benchAccess(b, rdmaPool(), RemoteLazy, benchPages, 0)
}

// BenchmarkAccessDemandZero writes a fresh anonymous region: every page
// takes a demand-zero minor fault.
func BenchmarkAccessDemandZero(b *testing.B) {
	benchAccess(b, nil, Unmapped, benchPages, benchPages)
}

// BenchmarkMarkInFlight replays a fresh RDMA region as 64-page prefetch
// batches, the prefetcher's doorbell size.
func BenchmarkMarkInFlight(b *testing.B) {
	tr := mem.NewTracker("node", 0)
	pool := rdmaPool()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		as := NewAddressSpace(tr, mem.DefaultLatencyModel())
		v, _ := as.AddVMA("img", 0, benchPages, Read|Write, Anon, pool, 0, RemoteLazy)
		for first := 0; first < benchPages; first += 64 {
			if _, err := as.MarkInFlight(v, first, 64, time.Duration(first)); err != nil {
				b.Fatal(err)
			}
		}
		as.ReleaseAll()
	}
}

// A steady-state read — pages already local or mapped direct, nothing
// left to fault — touches no heap at all.
func TestSteadyStateReadAccessAllocatesNothing(t *testing.T) {
	as, _ := newAS(t, 0)
	v, _ := as.AddVMA("img", 0, 1000, Read|Write, Anon, nil, 0, Unmapped)
	if err := as.SetBacking(v, 0, 400, cxlPool(), 0, RemoteDirect); err != nil {
		t.Fatal(err)
	}
	if err := as.SetBacking(v, 400, 600, rdmaPool(), 0, RemoteLazy); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := as.Access(rng, v, 1000, 100); err != nil { // fault everything in
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := as.Access(rng, v, 1000, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state read Access allocates %.1f times, want 0", allocs)
	}
}
