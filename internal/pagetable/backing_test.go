package pagetable

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// Multi-layer placement: one region with hot pages on CXL and cold pages
// on RDMA (§3.1, §9.5 of the paper).
func TestMultiLayerBackingWithinOneVMA(t *testing.T) {
	as, tr := newAS(t, 0)
	v, err := as.AddVMA("img", 0, 100, Read|Write, Anon, nil, 0, Unmapped)
	if err != nil {
		t.Fatal(err)
	}
	cxl := cxlPool()
	rdma := rdmaPool()
	if err := as.SetBacking(v, 0, 40, cxl, 0, RemoteDirect); err != nil {
		t.Fatal(err)
	}
	if err := as.SetBacking(v, 40, 60, rdma, 0x10000, RemoteLazy); err != nil {
		t.Fatal(err)
	}
	if v.PoolAt(0) != cxl || v.PoolAt(39) != cxl || v.PoolAt(40) != rdma || v.PoolAt(99) != rdma {
		t.Fatal("PoolAt returned wrong pool for segment")
	}
	rng := rand.New(rand.NewSource(1))
	res, err := as.Access(rng, v, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Hot 40 pages: direct CXL, no allocation. Cold 60: fetched from RDMA.
	if res.DirectPages != 40 || res.FetchedPages != 60 || res.MajorFaults != 60 {
		t.Fatalf("direct=%d fetched=%d major=%d", res.DirectPages, res.FetchedPages, res.MajorFaults)
	}
	if tr.Used() != 60*mem.PageSize {
		t.Fatalf("local bytes = %d, want 60 pages (only RDMA pages land locally)", tr.Used())
	}
	if rdma.Fetches() == 0 || cxl.Fetches() != 0 {
		t.Fatalf("fetch routed to wrong pool: cxl=%d rdma=%d", cxl.Fetches(), rdma.Fetches())
	}
}

func TestSetBackingValidation(t *testing.T) {
	as, _ := newAS(t, 0)
	v, _ := as.AddVMA("a", 0, 10, Read|Write, Anon, nil, 0, Unmapped)
	if err := as.SetBacking(v, 0, 4, rdmaPool(), 0, RemoteDirect); err == nil {
		t.Fatal("RemoteDirect on RDMA accepted")
	}
	if err := as.SetBacking(v, 0, 4, nil, 0, RemoteLazy); err == nil {
		t.Fatal("RemoteLazy without pool accepted")
	}
	if err := as.SetBacking(v, 8, 4, cxlPool(), 0, RemoteDirect); err == nil {
		t.Fatal("out-of-range backing accepted")
	}
	if err := as.SetBacking(v, 0, 4, cxlPool(), 0, RemoteDirect); err != nil {
		t.Fatal(err)
	}
	if err := as.SetBacking(v, 2, 4, cxlPool(), 0, RemoteDirect); err == nil {
		t.Fatal("overlapping backing accepted")
	}
}

func TestSetBackingLocalCharges(t *testing.T) {
	as, tr := newAS(t, 0)
	v, _ := as.AddVMA("a", 0, 10, Read|Write, Anon, nil, 0, Unmapped)
	if err := as.SetBacking(v, 0, 6, nil, 0, Local); err != nil {
		t.Fatal(err)
	}
	if tr.Used() != 6*mem.PageSize {
		t.Fatalf("tracker = %d", tr.Used())
	}
	if v.CountIn(Local) != 6 {
		t.Fatalf("local pages = %d", v.CountIn(Local))
	}
	// Making an already-local page local again must fail (double charge).
	if err := as.SetBacking(v, 0, 1, nil, 0, Local); err == nil {
		t.Fatal("double-populate accepted")
	}
}

// A failed SetBacking leaves the VMA, its backings and the node's memory
// accounting exactly as they were: validation runs before any charge or
// state change.
func TestSetBackingAtomicOnError(t *testing.T) {
	cases := []struct {
		name  string
		setup func(as *AddressSpace, v *VMA) error
		pool  *mem.Pool
		first int
		count int
		state State
	}{
		{
			name:  "already-local page",
			setup: func(as *AddressSpace, v *VMA) error { return as.MakeResident(v, 4, 1) },
			pool:  cxlPool(), first: 0, count: 8, state: RemoteDirect,
		},
		{
			name:  "overlap with state Local",
			setup: func(as *AddressSpace, v *VMA) error { return as.SetBacking(v, 0, 4, rdmaPool(), 0, RemoteLazy) },
			pool:  rdmaPool(), first: 2, count: 4, state: Local,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			as, tr := newAS(t, 0)
			v, _ := as.AddVMA("a", 0, 8, Read|Write, Anon, nil, 0, Unmapped)
			if err := c.setup(as, v); err != nil {
				t.Fatal(err)
			}
			snapshot := func() string {
				var states []State
				for i := 0; i < v.Pages(); i++ {
					states = append(states, v.PageState(i))
				}
				return fmt.Sprintf("states=%v local=%d direct=%d lazy=%d backings=%v rss=%d used=%d",
					states, v.CountIn(Local), v.CountIn(RemoteDirect), v.CountIn(RemoteLazy),
					v.Backings(), as.RSS(), tr.Used())
			}
			before := snapshot()
			if err := as.SetBacking(v, c.first, c.count, c.pool, 0, c.state); err == nil {
				t.Fatal("SetBacking succeeded")
			}
			if after := snapshot(); after != before {
				t.Fatalf("failed SetBacking changed the VMA:\nbefore %s\nafter  %s", before, after)
			}
		})
	}
}
