package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// small returns options scaled down for fast CI runs.
func small() Options { return Options{Seed: 1, Scale: 0.12} }

func runAndCheck(t *testing.T, id string) *Result {
	t.Helper()
	run, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	r := run(small())
	if r.ID != id {
		t.Fatalf("result ID %q, want %q", r.ID, id)
	}
	if len(r.Lines) == 0 {
		t.Fatalf("%s produced no lines", id)
	}
	if !strings.Contains(r.String(), r.Title) {
		t.Fatalf("%s: String() missing title", id)
	}
	return r
}

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{"table1", "table2", "table3", "fig3", "fig4", "fig10",
		"fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23",
		"fig24", "fig25", "fig26", "ablations", "sensitivity", "availability",
		"incidents", "prefetch", "hedging"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(all), len(want))
	}
	for i, w := range want {
		if all[i].ID != w {
			t.Fatalf("experiment %d = %q, want %q", i, all[i].ID, w)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("phantom experiment found")
	}
}

func TestTable1(t *testing.T) {
	r := runAndCheck(t, "table1")
	if len(r.Lines) != 6 {
		t.Fatalf("table1 lines = %d", len(r.Lines))
	}
}

func TestTable2(t *testing.T) {
	r := runAndCheck(t, "table2")
	if len(r.Lines) != 7 { // header + 6 agents
		t.Fatalf("table2 lines = %d", len(r.Lines))
	}
}

func TestTable3(t *testing.T) {
	r := runAndCheck(t, "table3")
	if !strings.Contains(strings.Join(r.Lines, "\n"), "75121") {
		t.Fatal("game-design token count missing")
	}
}

func TestFig3(t *testing.T) { runAndCheck(t, "fig3") }

func TestFig4(t *testing.T) {
	r := runAndCheck(t, "fig4")
	if len(r.Lines) != 6 {
		t.Fatalf("fig4 lines = %d", len(r.Lines))
	}
}

func TestFig10(t *testing.T) {
	r := runAndCheck(t, "fig10")
	if len(r.Lines) != 10 {
		t.Fatalf("fig10 lines = %d", len(r.Lines))
	}
}

func TestFig17SmallScale(t *testing.T) {
	r := runAndCheck(t, "fig17")
	// Both workloads present with speedup summaries.
	s := strings.Join(r.Lines, "\n")
	if !strings.Contains(s, "W1") || !strings.Contains(s, "W2") {
		t.Fatal("missing workload sections")
	}
	if !strings.Contains(s, "speedup") {
		t.Fatal("missing speedup summary")
	}
}

func TestFig18SmallScale(t *testing.T) {
	r := runAndCheck(t, "fig18")
	s := strings.Join(r.Lines, "\n")
	for _, frag := range []string{"W1", "W2", "Azure", "Huawei", "IR", "IFR"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("fig18 missing %q", frag)
		}
	}
}

func TestFig19(t *testing.T) {
	r := runAndCheck(t, "fig19")
	if len(r.Lines) != 10 {
		t.Fatalf("fig19 lines = %d", len(r.Lines))
	}
}

func TestFig20(t *testing.T) { runAndCheck(t, "fig20") }

func TestFig21(t *testing.T) {
	r := runAndCheck(t, "fig21")
	if len(r.Lines) != 10 { // 2 functions x 5 configurations
		t.Fatalf("fig21 lines = %d", len(r.Lines))
	}
}

func TestFig22(t *testing.T) { runAndCheck(t, "fig22") }

func TestFig23(t *testing.T) {
	r := runAndCheck(t, "fig23")
	if len(r.Lines) != 4 {
		t.Fatalf("fig23 lines = %d", len(r.Lines))
	}
}

func TestFig24(t *testing.T) { runAndCheck(t, "fig24") }
func TestFig25(t *testing.T) { runAndCheck(t, "fig25") }
func TestFig26(t *testing.T) { runAndCheck(t, "fig26") }

func TestDeterministicAcrossRuns(t *testing.T) {
	run, _ := ByID("fig17")
	a := run(small()).String()
	b := run(small()).String()
	if a != b {
		t.Fatal("fig17 not deterministic for a fixed seed")
	}
}

func TestAblations(t *testing.T) {
	r := runAndCheck(t, "ablations")
	s := strings.Join(r.Lines, "\n")
	for _, frag := range []string{"hot-fraction", "promotion", "EPT", "dedup", "clean-state"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("ablations missing %q", frag)
		}
	}
}

func TestSensitivityOrderingsSurvive(t *testing.T) {
	r := runAndCheck(t, "sensitivity")
	if len(r.Lines) != 12 { // 4 knobs x 3 factors
		t.Fatalf("sensitivity lines = %d", len(r.Lines))
	}
	// Every row must keep T-CXL at least as fast as CRIU at p99.
	for _, line := range r.Lines {
		var cxl, reap, criu float64
		if _, err := fmt.Sscanf(line[strings.Index(line, "t-cxl="):],
			"t-cxl=%fms reap+=%fms criu=%fms", &cxl, &reap, &criu); err != nil {
			t.Fatalf("unparseable line %q: %v", line, err)
		}
		if criu < cxl {
			t.Fatalf("CRIU beat T-CXL under %q", line)
		}
	}
}

// TestPrefetchExperimentWins is the PR's acceptance assertion: with the
// same seed and trace, the prefetch-on run must show a lower P99
// restore cost and fewer demand remote faults than the prefetch-off
// run, with the batched replay actually exercised.
func TestPrefetchExperimentWins(t *testing.T) {
	o := small().normalize()
	tr := azureTrace(o)
	on := runPrefetch(o, tr, true)
	off := runPrefetch(o, tr, false)
	if on.invocations != off.invocations {
		t.Fatalf("runs diverged: %d vs %d invocations", on.invocations, off.invocations)
	}
	if on.restoreP99 >= off.restoreP99 {
		t.Fatalf("prefetch did not lower restore p99: %.2f >= %.2f", on.restoreP99, off.restoreP99)
	}
	if on.demandPages >= off.demandPages {
		t.Fatalf("prefetch did not reduce demand faults: %d >= %d", on.demandPages, off.demandPages)
	}
	if on.batches == 0 || on.hits == 0 || on.prefetchPages == 0 {
		t.Fatalf("replay idle: batches=%d hits=%d pages=%d", on.batches, on.hits, on.prefetchPages)
	}
	if off.batches != 0 || off.prefetchPages != 0 {
		t.Fatalf("off run prefetched: batches=%d pages=%d", off.batches, off.prefetchPages)
	}
}

func TestPrefetchExperimentRuns(t *testing.T) {
	r := runAndCheck(t, "prefetch")
	s := strings.Join(r.Lines, "\n")
	for _, frag := range []string{"prefetch-on", "prefetch-off", "restore p99", "fewer"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("prefetch result missing %q:\n%s", frag, s)
		}
	}
}
