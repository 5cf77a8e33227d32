package mmtemplate

import (
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/pagetable"
)

// imageTemplate lays out a function image of imageBytes the way the
// snapshot layer does: text and data on CXL, a heap split hot (CXL) and
// cold (RDMA), and an unbacked stack.
func imageTemplate(tb testing.TB, imageBytes int64) *Template {
	tb.Helper()
	cxl, rdma := pools()
	tpl := NewRegistry().Create("image")
	text, heap := imageBytes/8, imageBytes*3/4
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	must(tpl.AddMap("text", 0x400000, text, pagetable.Read|pagetable.Exec, pagetable.File))
	must(tpl.AddMap("data", 0x10000000, imageBytes/16, pagetable.Read|pagetable.Write, pagetable.File))
	must(tpl.AddMap("heap", 0x100000000, heap, pagetable.Read|pagetable.Write, pagetable.Anon))
	must(tpl.AddMap("stack", 0x7ff000000000, imageBytes/16, pagetable.Read|pagetable.Write, pagetable.Anon))
	must(tpl.SetupPT(0x400000, text, 0, cxl))
	must(tpl.SetupPT(0x10000000, imageBytes/16, uint64(text), cxl))
	must(tpl.SetupPT(0x100000000, heap/4, 0, cxl))
	must(tpl.SetupPT(0x100000000+uint64(heap/4), heap-heap/4, 0, rdma))
	return tpl
}

// BenchmarkAttach attaches a 95 MB image, the paper's JS function.
func BenchmarkAttach(b *testing.B) {
	tpl := imageTemplate(b, 95<<20)
	tr := mem.NewTracker("node", 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := tpl.Attach(tr, mem.DefaultLatencyModel(), DefaultCostModel()); err != nil {
			b.Fatal(err)
		}
	}
}

// Attach copies metadata, so its host cost follows the template's
// segment count, not its image size: a 1 GB image allocates exactly as
// often, and exactly as many bytes, as a 16 MB one of the same shape.
func TestAttachAllocsIndependentOfImageSize(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	measure := func(imageBytes int64) (allocs, bytes uint64) {
		tpl := imageTemplate(t, imageBytes)
		tr := mem.NewTracker("node", 0)
		attach := func() {
			if _, _, err := tpl.Attach(tr, mem.DefaultLatencyModel(), DefaultCostModel()); err != nil {
				t.Fatal(err)
			}
		}
		attach() // warm up, as testing.AllocsPerRun does
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 20; i++ {
			attach()
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	smallAllocs, smallBytes := measure(16 << 20)
	largeAllocs, largeBytes := measure(1 << 30)
	if smallAllocs != largeAllocs || smallBytes != largeBytes {
		t.Fatalf("20 attaches: 16 MB image %d allocs / %d bytes, 1 GB image %d / %d; want equal",
			smallAllocs, smallBytes, largeAllocs, largeBytes)
	}
}
