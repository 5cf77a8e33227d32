package diff

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/report"
)

// mkReport builds a small but fully populated bundle: metrics, a
// series, figure rows, analysis, and a span list.
func mkReport() *report.Report {
	r := report.New("test", 1, 0.5)
	r.SetFlag("policy", "trenv-cxl")
	r.Metrics = []report.Metric{
		{Key: "trenv_errors_total", Name: "trenv_errors_total", Value: 2, Counter: true},
		{Key: "trenv_warm_starts_total", Name: "trenv_warm_starts_total", Value: 40, Counter: true},
		{Key: "trenv_peak_memory_bytes", Name: "trenv_peak_memory_bytes", Value: 1 << 20},
	}
	r.Series = []report.Series{{
		Key:  "trenv_active",
		Name: "trenv_active",
		Points: []report.Point{
			{TMS: 0, V: 0}, {TMS: 100, V: 3}, {TMS: 200, V: 1},
		},
	}}
	r.AddFigure("fig17", "E2E latency", []string{"JS 120ms", "PR 600ms"})
	r.Analysis = &obs.Report{
		Invocations: 10,
		Slowest: []obs.SlowInvocation{{
			TraceID: "t1", Function: "JS", DurUs: 9000,
			CriticalPath: []obs.PathStep{
				{Name: "invoke/JS", SelfUs: 100},
				{Name: "startup", SelfUs: 5000},
				{Name: "exec", SelfUs: 3900},
			},
		}},
		Attribution: []obs.PhaseAttribution{{
			Function: "JS", Invocations: 10,
			Phases: []obs.PhaseQuantiles{
				{Phase: "startup", P50Us: 4000, P99Us: 5000},
				{Phase: "exec", P50Us: 3000, P99Us: 3900},
			},
		}},
	}
	r.Spans = []report.SpanRecord{
		{TraceID: "t1", SpanID: "s1", Name: "invoke/JS", Node: "n0", StartUs: 0, DurUs: 9000},
		{TraceID: "t1", SpanID: "s2", Name: "startup", Node: "n0", StartUs: 10, DurUs: 5000},
		{TraceID: "t2", SpanID: "s3", Name: "invoke/JS", Node: "n0", StartUs: 500, DurUs: 4000},
		{TraceID: "t2", SpanID: "s4", Name: "exec", Node: "n0", StartUs: 600, DurUs: 3000},
	}
	return r
}

// clone deep-copies a bundle through its JSON form.
func clone(t *testing.T, r *report.Report) *report.Report {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var out report.Report
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

func TestIdenticalReportsZeroFindings(t *testing.T) {
	base := mkReport()
	res, err := Compare(base, clone(t, base), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 0 {
		t.Fatalf("identical pair produced findings: %+v", res.Findings)
	}
	if res.Regressed() {
		t.Fatal("identical pair regressed")
	}
	if res.Compared == 0 || res.Compared != res.Unchanged {
		t.Fatalf("compared=%d unchanged=%d", res.Compared, res.Unchanged)
	}
}

func TestEmptyReportsCompareClean(t *testing.T) {
	a := report.New("empty", 1, 1)
	b := report.New("empty", 1, 1)
	res, err := Compare(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 0 || res.Regressed() {
		t.Fatalf("empty pair not clean: %+v", res.Findings)
	}
}

func TestMismatchRefusals(t *testing.T) {
	base := mkReport()
	cases := []struct {
		field string
		mut   func(r *report.Report)
	}{
		{"schema", func(r *report.Report) { r.Schema = "trenv-report/v999" }},
		{"source", func(r *report.Report) { r.Source = "other" }},
		{"seed", func(r *report.Report) { r.Seed++ }},
		{"scale", func(r *report.Report) { r.Scale *= 2 }},
	}
	for _, tc := range cases {
		fresh := clone(t, base)
		tc.mut(fresh)
		_, err := Compare(base, fresh, Options{})
		var mismatch *MismatchError
		if !errors.As(err, &mismatch) {
			t.Fatalf("%s mismatch not refused (err=%v)", tc.field, err)
		}
		if mismatch.Field != tc.field {
			t.Fatalf("refused on %q, want %q", mismatch.Field, tc.field)
		}
	}
}

func TestFirstDivergentSpanPinpointed(t *testing.T) {
	base := mkReport()
	fresh := clone(t, base)
	// Perturb two spans; triage must name the earliest.
	fresh.Spans[1].DurUs += 7
	fresh.Spans[3].Node = "n1"
	res, err := Compare(base, fresh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := res.Determinism
	if d == nil {
		t.Fatal("no divergence detected")
	}
	if d.Index != 1 || d.Field != "dur_us" {
		t.Fatalf("divergence = %+v, want index 1 field dur_us", d)
	}
	if d.TraceID != "t1" || d.Phase != "startup" || d.Node != "n0" || d.VirtualUs != 10 {
		t.Fatalf("divergence identity = %+v", d)
	}
	if !res.Regressed() {
		t.Fatal("divergent pair not regressed")
	}
	if !strings.Contains(d.String(), "index 1") || !strings.Contains(d.String(), "trace t1") {
		t.Fatalf("diagnosis %q lacks identity", d.String())
	}
}

func TestSpanCountDivergence(t *testing.T) {
	base := mkReport()
	fresh := clone(t, base)
	fresh.Spans = fresh.Spans[:len(fresh.Spans)-1]
	res, err := Compare(base, fresh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Determinism == nil || res.Determinism.Field != "missing span" {
		t.Fatalf("determinism = %+v, want missing span", res.Determinism)
	}
	if res.Determinism.Index != 3 {
		t.Fatalf("index = %d, want 3", res.Determinism.Index)
	}
}

func TestMetricToleranceAndDirection(t *testing.T) {
	base := mkReport()
	fresh := clone(t, base)
	fresh.Metrics[0].Value = 3  // errors 2 -> 3: higher is worse
	fresh.Metrics[1].Value = 44 // warm starts 40 -> 44: higher is better

	// Inside a 60% band nothing moves.
	res, err := Compare(base, clone(t, fresh), Options{RelTol: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		if f.Kind == "metric" {
			t.Fatalf("in-tolerance delta reported: %+v", f)
		}
	}

	// Exact comparison classifies by direction.
	res, err = Compare(base, clone(t, fresh), Options{})
	if err != nil {
		t.Fatal(err)
	}
	verdicts := map[string]Verdict{}
	for _, f := range res.Findings {
		if f.Kind == "metric" {
			verdicts[f.Key] = f.Verdict
		}
	}
	if verdicts["trenv_errors_total"] != VerdictRegressed {
		t.Fatalf("error growth = %v, want regressed", verdicts["trenv_errors_total"])
	}
	if verdicts["trenv_warm_starts_total"] != VerdictImproved {
		t.Fatalf("warm-start growth = %v, want improved", verdicts["trenv_warm_starts_total"])
	}

	// Missing and new metrics are named.
	fresh = clone(t, base)
	fresh.Metrics = append(fresh.Metrics[:1], report.Metric{Key: "trenv_new_total", Value: 1})
	res, err = Compare(base, fresh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[Verdict]bool{}
	for _, f := range res.Findings {
		if f.Kind == "metric" {
			got[f.Verdict] = true
		}
	}
	if !got[VerdictMissing] || !got[VerdictNew] {
		t.Fatalf("verdicts = %v, want missing and new", got)
	}
}

func TestFigureAndSeriesDiffs(t *testing.T) {
	base := mkReport()
	fresh := clone(t, base)
	fresh.Figures[0].Lines[1] = "PR 700ms"
	fresh.Series[0].Points[2].V = 2
	res, err := Compare(base, fresh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var figure, series bool
	for _, f := range res.Findings {
		switch f.Kind {
		case "figure":
			figure = true
			if !strings.Contains(f.Detail, "PR 600ms") || !strings.Contains(f.Detail, "PR 700ms") {
				t.Fatalf("figure detail %q does not quote both rows", f.Detail)
			}
			if f.Key != "figure/fig17/line1" {
				t.Fatalf("figure key = %q", f.Key)
			}
		case "series":
			series = true
			if !strings.Contains(f.Detail, "t=200.0ms") {
				t.Fatalf("series detail %q does not name the divergence instant", f.Detail)
			}
		}
	}
	if !figure || !series {
		t.Fatalf("figure=%v series=%v, want both", figure, series)
	}
}

func TestAttributionAndCriticalPathDiffs(t *testing.T) {
	base := mkReport()
	fresh := clone(t, base)
	fresh.Analysis.Attribution[0].Phases[0].P99Us = 8000 // startup p99 +60%
	fresh.Analysis.Slowest[0].CriticalPath = []obs.PathStep{
		{Name: "invoke/JS", SelfUs: 100},
		{Name: "pool-fetch", SelfUs: 6000}, // entered
		{Name: "exec", SelfUs: 3900},       // startup left
	}
	res, err := Compare(base, fresh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]Verdict{}
	for _, f := range res.Findings {
		keys[f.Key] = f.Verdict
	}
	if keys["attr/JS/startup/p99_us"] != VerdictRegressed {
		t.Fatalf("attribution finding = %v", keys)
	}
	if keys["critical-path/pool-fetch"] != VerdictRegressed {
		t.Fatalf("entered phase = %v, want regressed", keys["critical-path/pool-fetch"])
	}
	if keys["critical-path/startup"] != VerdictImproved {
		t.Fatalf("left phase = %v, want improved", keys["critical-path/startup"])
	}
}

func TestFindingsRankedMostSevereFirst(t *testing.T) {
	base := mkReport()
	fresh := clone(t, base)
	fresh.Metrics[0].Value = 3                        // regressed
	fresh.Metrics[1].Value = 44                       // improved
	fresh.Flags = map[string]string{"policy": "criu"} // changed
	res, err := Compare(base, fresh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) < 3 {
		t.Fatalf("want >= 3 findings, got %+v", res.Findings)
	}
	last := -1
	for _, f := range res.Findings {
		r := f.Verdict.rank()
		if r < last {
			t.Fatalf("findings not ranked: %+v", res.Findings)
		}
		last = r
	}
	if res.Findings[0].Verdict != VerdictRegressed {
		t.Fatalf("first finding = %v, want regressed", res.Findings[0].Verdict)
	}
}

func TestDiffOutputByteIdentical(t *testing.T) {
	base := mkReport()
	fresh := clone(t, base)
	fresh.Metrics[0].Value = 3
	fresh.Spans[2].DurUs += 1
	render := func() (string, string) {
		res, err := Compare(clone(t, base), clone(t, fresh), Options{})
		if err != nil {
			t.Fatal(err)
		}
		var txt, js bytes.Buffer
		if err := res.WriteText(&txt); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return txt.String(), js.String()
	}
	t1, j1 := render()
	t2, j2 := render()
	if t1 != t2 {
		t.Fatalf("text output differs across runs:\n%s\n---\n%s", t1, t2)
	}
	if j1 != j2 {
		t.Fatal("JSON output differs across runs")
	}
}
