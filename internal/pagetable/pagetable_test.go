package pagetable

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func newAS(t *testing.T, capacity int64) (*AddressSpace, *mem.Tracker) {
	t.Helper()
	tr := mem.NewTracker("node", capacity)
	return NewAddressSpace(tr, mem.DefaultLatencyModel()), tr
}

func cxlPool() *mem.Pool  { return mem.NewPool(mem.CXL, 0, mem.DefaultLatencyModel()) }
func rdmaPool() *mem.Pool { return mem.NewPool(mem.RDMA, 0, mem.DefaultLatencyModel()) }

func TestAddVMAOverlapRejected(t *testing.T) {
	as, _ := newAS(t, 0)
	if _, err := as.AddVMA("a", 0x1000, 4, Read|Write, Anon, nil, 0, Unmapped); err != nil {
		t.Fatal(err)
	}
	_, err := as.AddVMA("b", 0x2000, 4, Read, Anon, nil, 0, Unmapped)
	var overlap *ErrOverlap
	if !errors.As(err, &overlap) {
		t.Fatalf("overlap not detected: %v", err)
	}
	if _, err := as.AddVMA("c", 0x5000, 1, Read, Anon, nil, 0, Unmapped); err != nil {
		t.Fatalf("adjacent VMA rejected: %v", err)
	}
}

func TestRemoteStateRequiresPool(t *testing.T) {
	as, _ := newAS(t, 0)
	if _, err := as.AddVMA("a", 0, 1, Read, Anon, nil, 0, RemoteDirect); err == nil {
		t.Fatal("RemoteDirect without pool accepted")
	}
	if _, err := as.AddVMA("b", 0, 1, Read, Anon, rdmaPool(), 0, RemoteDirect); err == nil {
		t.Fatal("RemoteDirect on RDMA (not byte-addressable) accepted")
	}
	if _, err := as.AddVMA("c", 0, 1, Read, Anon, rdmaPool(), 0, RemoteLazy); err != nil {
		t.Fatalf("RemoteLazy on RDMA rejected: %v", err)
	}
}

func TestDemandZeroAllocatesLocal(t *testing.T) {
	as, tr := newAS(t, 0)
	v, _ := as.AddVMA("heap", 0, 10, Read|Write, Anon, nil, 0, Unmapped)
	rng := rand.New(rand.NewSource(1))
	lat, err := as.Touch(rng, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if lat == 0 {
		t.Fatal("demand-zero fault had no cost")
	}
	if v.PageState(0) != Local || v.CountIn(Local) != 1 {
		t.Fatalf("page state = %v", v.PageState(0))
	}
	if tr.Used() != mem.PageSize {
		t.Fatalf("tracker used %d, want one page", tr.Used())
	}
	// Second touch is free.
	lat2, _ := as.Touch(rng, 0, true)
	if lat2 != 0 {
		t.Fatalf("resident touch cost %v", lat2)
	}
	if as.Stats().MinorFaults != 1 {
		t.Fatalf("minor faults = %d", as.Stats().MinorFaults)
	}
}

func TestCXLReadNoFaultNoAllocation(t *testing.T) {
	as, tr := newAS(t, 0)
	pool := cxlPool()
	v, _ := as.AddVMA("img", 0, 100, Read|Write, Anon, pool, 0, RemoteDirect)
	rng := rand.New(rand.NewSource(1))
	res, err := as.Access(rng, v, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MinorFaults+res.MajorFaults != 0 {
		t.Fatalf("CXL read took faults: %+v", res)
	}
	if res.DirectPages != 50 {
		t.Fatalf("direct pages = %d", res.DirectPages)
	}
	if tr.Used() != 0 {
		t.Fatalf("CXL read allocated %d local bytes", tr.Used())
	}
	if v.CountIn(RemoteDirect) != 100 {
		t.Fatal("read should not change page state")
	}
	if res.Latency != pool.DirectAccessCost(50) {
		t.Fatalf("latency %v, want pure direct-access cost", res.Latency)
	}
}

func TestCXLWriteTriggersCoW(t *testing.T) {
	as, tr := newAS(t, 0)
	v, _ := as.AddVMA("img", 0, 100, Read|Write, Anon, cxlPool(), 0, RemoteDirect)
	rng := rand.New(rand.NewSource(1))
	res, err := as.Access(rng, v, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.CowPages != 20 || res.MinorFaults != 20 {
		t.Fatalf("cow=%d minor=%d, want 20/20", res.CowPages, res.MinorFaults)
	}
	if tr.Used() != 20*mem.PageSize {
		t.Fatalf("local bytes = %d, want 20 pages", tr.Used())
	}
	if v.CountIn(Local) != 20 || v.CountIn(RemoteDirect) != 80 {
		t.Fatalf("states: local=%d remote=%d", v.CountIn(Local), v.CountIn(RemoteDirect))
	}
	// Re-write is free: pages are private now.
	res2, _ := as.Access(rng, v, 20, 20)
	if res2.CowPages != 0 || res2.Latency != 0 {
		t.Fatalf("second write not free: %+v", res2)
	}
}

func TestRDMAAccessMajorFaultsAndFetches(t *testing.T) {
	as, tr := newAS(t, 0)
	pool := rdmaPool()
	v, _ := as.AddVMA("img", 0, 100, Read|Write, Anon, pool, 0, RemoteLazy)
	rng := rand.New(rand.NewSource(1))
	res, err := as.Access(rng, v, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.MajorFaults != 40 || res.FetchedPages != 40 {
		t.Fatalf("major=%d fetched=%d, want 40/40", res.MajorFaults, res.FetchedPages)
	}
	if tr.Used() != 40*mem.PageSize {
		t.Fatalf("local bytes = %d, want 40 pages (RDMA reads allocate)", tr.Used())
	}
	if pool.Fetches() == 0 {
		t.Fatal("pool saw no fetches")
	}
	// RDMA costs strictly more than CXL for the same access.
	as2, _ := newAS(t, 0)
	v2, _ := as2.AddVMA("img", 0, 100, Read|Write, Anon, cxlPool(), 0, RemoteDirect)
	res2, _ := as2.Access(rng, v2, 40, 10)
	if res.Latency <= res2.Latency {
		t.Fatalf("RDMA (%v) not slower than CXL (%v)", res.Latency, res2.Latency)
	}
}

func TestProtectionEnforced(t *testing.T) {
	as, _ := newAS(t, 0)
	v, _ := as.AddVMA("ro", 0, 4, Read, Anon, nil, 0, Unmapped)
	rng := rand.New(rand.NewSource(1))
	_, err := as.Access(rng, v, 0, 1)
	var prot *ErrProt
	if !errors.As(err, &prot) || !prot.Write {
		t.Fatalf("write to RO region: %v", err)
	}
	v2, _ := as.AddVMA("wo", 0x100000, 4, Write, Anon, nil, 0, Unmapped)
	if _, err := as.Access(rng, v2, 4, 0); err == nil {
		t.Fatal("read of write-only region succeeded")
	}
}

func TestAccessBeyondVMAFails(t *testing.T) {
	as, _ := newAS(t, 0)
	v, _ := as.AddVMA("a", 0, 4, Read|Write, Anon, nil, 0, Unmapped)
	rng := rand.New(rand.NewSource(1))
	if _, err := as.Access(rng, v, 5, 0); err == nil {
		t.Fatal("out-of-range access succeeded")
	}
	if _, err := as.Touch(rng, 0x4000, false); err == nil {
		t.Fatal("touch of unmapped address succeeded")
	}
}

func TestGrowStaysLocal(t *testing.T) {
	// Figure 9(b): heap growth after CXL restore must allocate locally,
	// never spill into adjacent pool memory.
	as, tr := newAS(t, 0)
	heap, _ := as.AddVMA("heap", 0x1000, 8, Read|Write, Anon, cxlPool(), 0, RemoteDirect)
	if err := as.Grow(heap, 4); err != nil {
		t.Fatal(err)
	}
	if heap.Pages() != 12 {
		t.Fatalf("pages = %d", heap.Pages())
	}
	for i := 8; i < 12; i++ {
		if heap.PageState(i) != Unmapped {
			t.Fatalf("grown page %d state = %v, want Unmapped", i, heap.PageState(i))
		}
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := as.Access(rng, heap, 12, 12); err != nil {
		t.Fatal(err)
	}
	// Grown pages became Local (demand zero), not remote.
	for i := 8; i < 12; i++ {
		if heap.PageState(i) != Local {
			t.Fatalf("grown page %d state = %v", i, heap.PageState(i))
		}
	}
	if tr.Used() != 12*mem.PageSize { // 8 CoW + 4 demand-zero
		t.Fatalf("local = %d", tr.Used())
	}
}

func TestGrowIntoNeighborRejected(t *testing.T) {
	as, _ := newAS(t, 0)
	a, _ := as.AddVMA("a", 0, 2, Read|Write, Anon, nil, 0, Unmapped)
	as.AddVMA("b", 0x2000, 2, Read|Write, Anon, nil, 0, Unmapped)
	if err := as.Grow(a, 1); err == nil {
		t.Fatal("growth into neighbor allowed")
	}
}

func TestReleaseAllReturnsMemory(t *testing.T) {
	as, tr := newAS(t, 0)
	v, _ := as.AddVMA("a", 0, 10, Read|Write, Anon, nil, 0, Unmapped)
	rng := rand.New(rand.NewSource(1))
	as.Access(rng, v, 10, 10)
	if tr.Used() == 0 {
		t.Fatal("expected allocation")
	}
	as.ReleaseAll()
	if tr.Used() != 0 || as.RSS() != 0 {
		t.Fatalf("leak: tracker=%d rss=%d", tr.Used(), as.RSS())
	}
}

func TestLocalInitStateChargesTracker(t *testing.T) {
	as, tr := newAS(t, 0)
	if _, err := as.AddVMA("a", 0, 5, Read|Write, Anon, nil, 0, Local); err != nil {
		t.Fatal(err)
	}
	if tr.Used() != 5*mem.PageSize {
		t.Fatalf("tracker = %d", tr.Used())
	}
}

func TestCapacityExhaustionSurfacesError(t *testing.T) {
	as, _ := newAS(t, 2*mem.PageSize)
	v, _ := as.AddVMA("a", 0, 10, Read|Write, Anon, nil, 0, Unmapped)
	rng := rand.New(rand.NewSource(1))
	if _, err := as.Access(rng, v, 10, 10); err == nil {
		t.Fatal("allocation beyond node capacity succeeded")
	}
}

func TestFindVMA(t *testing.T) {
	as, _ := newAS(t, 0)
	as.AddVMA("lo", 0x1000, 2, Read, Anon, nil, 0, Unmapped)
	as.AddVMA("hi", 0x10000, 2, Read, Anon, nil, 0, Unmapped)
	if v := as.Find(0x1000); v == nil || v.Name != "lo" {
		t.Fatal("Find(0x1000)")
	}
	if v := as.Find(0x2fff); v == nil || v.Name != "lo" {
		t.Fatal("Find(last byte of lo)")
	}
	if v := as.Find(0x3000); v != nil {
		t.Fatal("Find in gap should be nil")
	}
	if v := as.Find(0x10000); v == nil || v.Name != "hi" {
		t.Fatal("Find(hi)")
	}
	if as.Region("lo") == nil || as.Region("missing") != nil {
		t.Fatal("Region lookup")
	}
}

// Property: per-state counts always sum to the page count and match a
// direct scan, across random access sequences.
func TestStateCountInvariantProperty(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		tr := mem.NewTracker("node", 0)
		as := NewAddressSpace(tr, mem.DefaultLatencyModel())
		pool := cxlPool()
		v, err := as.AddVMA("img", 0, 64, Read|Write, Anon, pool, 0, RemoteDirect)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			read := int(op % 65)
			write := int((op >> 8) % 65)
			if _, err := as.Access(rng, v, read, write); err != nil {
				return false
			}
			var scan [4]int
			total := 0
			for i := 0; i < v.Pages(); i++ {
				scan[v.PageState(i)]++
				total++
			}
			if total != 64 {
				return false
			}
			for s := State(0); s < numStates; s++ {
				if scan[s] != v.CountIn(s) {
					return false
				}
			}
			// Local pages must equal charged tracker bytes.
			if int64(v.CountIn(Local))*mem.PageSize != tr.Used() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: access is idempotent on state — repeating the same access
// batch causes no further faults or allocation.
func TestAccessIdempotentProperty(t *testing.T) {
	f := func(read8, write8 uint8, seed int64) bool {
		read, write := int(read8%33), int(write8%33)
		tr := mem.NewTracker("node", 0)
		as := NewAddressSpace(tr, mem.DefaultLatencyModel())
		v, err := as.AddVMA("img", 0, 32, Read|Write, Anon, rdmaPool(), 0, RemoteLazy)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		if _, err := as.Access(rng, v, read, write); err != nil {
			return false
		}
		used := tr.Used()
		res, err := as.Access(rng, v, read, write)
		if err != nil {
			return false
		}
		return res.MajorFaults == 0 && res.MinorFaults == 0 && tr.Used() == used
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Unmapped: "unmapped", RemoteDirect: "remote-direct", RemoteLazy: "remote-lazy", Local: "local"} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}
