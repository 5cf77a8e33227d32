package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/faas"
	"repro/internal/workload"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// spec is the part of BENCHMARK.json the tests check the program
// against.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// lastResult runs the benchmark and decodes its last output line.
func lastResult(t *testing.T, args ...string) (result, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(append(args, "--out", t.TempDir()), &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v (stderr %s)", lines[len(lines)-1], err, errOut.String())
	}
	return res, code
}

// TestMetricsMatchSpec runs the quickest workload in both modes and
// checks that it prints exactly the metrics BENCHMARK.json declares,
// with their units, under well-formed names.
func TestMetricsMatchSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the node-obs workload twice")
	}
	s := loadSpec(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range s.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !slices.Equal(names, specNames) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", names, specNames)
	}
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": s.EndToEnd, "1": s.PerLayer} {
		res, code := lastResult(t, "--workload", "node-obs", "--seed", "1", "--seconds", "0.001", "--trace", trace)
		if code != 0 || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Fatalf("trace %s: exit %d, result %+v", trace, code, res)
		}
		var got, wantNames []string
		for name, m := range res.Metrics {
			got = append(got, name)
			if !metricName.MatchString(name) {
				t.Errorf("metric name %q", name)
			}
			if m.Value < 0 {
				t.Errorf("%s = %v", name, m.Value)
			}
		}
		for _, w := range want {
			wantNames = append(wantNames, w.Name)
			if m, ok := res.Metrics[w.Name]; ok && m.Unit != w.Unit {
				t.Errorf("%s: unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
			}
		}
		sort.Strings(got)
		sort.Strings(wantNames)
		if !slices.Equal(got, wantNames) {
			t.Errorf("trace %s prints %v, BENCHMARK.json lists %v", trace, got, wantNames)
		}
	}
}

func TestLayerAttribution(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		// A runtime leaf is charged to the layer that called it.
		{[]string{"runtime.mallocgc", "runtime.growslice", "repro/internal/pagetable.(*AddressSpace).accessVMA", "repro/internal/core.(*Runtime).Execute"}, "pagetable"},
		{[]string{"sort.Float64s", "repro/internal/sim.(*Histogram).sort", "repro/internal/faas.(*Platform).invoke.func3"}, "sim"},
		{[]string{"repro/internal/obs.(*Registry).Gather", "repro/internal/obs.(*Recorder).Sample"}, "obs"},
		// A stack with no repository frame is the collector's.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		// The benchmark's own frames and unlisted packages are not layers.
		{[]string{"runtime.ReadMemStats", "main.(*meter).run", "main.runFig17"}, "gc"},
		{[]string{"repro/internal/experiments.Fig17", "repro/internal/faas.(*Platform).RunTrace"}, "faas"},
	} {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// pb appends protobuf fields for a synthetic profile.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, data []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func TestCPUByLayerSyntheticProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mallocgc", "repro/internal/pagetable.(*AddressSpace).Access", "runtime.gcBgMarkWorker",
		"repro/internal/mem.(*Pool).Fetch"}
	var p pb
	p = p.bytes(1, pb{}.varint(1, 1).varint(2, 2)) // samples/count
	p = p.bytes(1, pb{}.varint(1, 3).varint(2, 4)) // cpu/nanoseconds
	// Functions 1..4 name strings 5..8.
	for id := uint64(1); id <= 4; id++ {
		p = p.bytes(5, pb{}.varint(1, id).varint(2, id+4))
	}
	// Location 1 inlines mallocgc into pagetable.Access (innermost
	// first); location 2 is the collector; location 3 is mem.
	p = p.bytes(4, pb{}.varint(1, 1).bytes(4, pb{}.varint(1, 1)).bytes(4, pb{}.varint(1, 2)))
	p = p.bytes(4, pb{}.varint(1, 2).bytes(4, pb{}.varint(1, 3)))
	p = p.bytes(4, pb{}.varint(1, 3).bytes(4, pb{}.varint(1, 4)))
	// Packed location and value lists, then unpacked ones.
	packed := func(xs ...uint64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.AppendUvarint(b, x)
		}
		return b
	}
	p = p.bytes(2, pb{}.bytes(1, packed(1)).bytes(2, packed(1, 30)))
	p = p.bytes(2, pb{}.varint(1, 2).varint(2, 1).varint(2, 10))
	p = p.bytes(2, pb{}.bytes(1, packed(3, 1)).bytes(2, packed(1, 5)))
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	got, err := cpuByLayer(p)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"pagetable": 30, "gc": 10, "mem": 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cpuByLayer = %v, want %v", got, want)
	}
	if _, err := cpuByLayer(p[:len(p)-3]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

// TestCPUByLayerRealProfile parses a profile the Go runtime wrote.
func TestCPUByLayerRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	x := 0
	for t0 := time.Now(); time.Since(t0) < 200*time.Millisecond; {
		x += len(strings.Repeat("x", 64))
	}
	pprof.StopCPUProfile()
	got, err := cpuByLayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got["gc"] <= 0 || x == 0 {
		t.Errorf("a test binary's busy loop has no repository frame, want it in gc: %v", got)
	}
}

// perturbed is a workload whose second repeat changes one simulated row.
func perturbed(seed int64, m *meter) (*repeat, error) {
	if m.setupOnly {
		return &repeat{}, nil
	}
	m.run("RunTrace", 10, func() { time.Sleep(time.Millisecond) })
	calls++
	r := &repeat{arrivals: 10, rows: []string{"unit fn=JS e2e{n=10 p50=1.5}", "unit memory peak=100"}}
	if calls > 1 {
		r.rows[1] = "unit memory peak=101"
	}
	return r, nil
}

var calls int

func TestPerturbedRowFailsCheck(t *testing.T) {
	calls = 0
	workloads = append(workloads, workloadDef{name: "perturbed", once: perturbed})
	defer func() { workloads = workloads[:len(workloads)-1] }()
	res, code := lastResult(t, "--workload", "perturbed", "--seconds", "0.001")
	if code == 0 || res.Correct {
		t.Fatalf("perturbed row passed: exit %d, %+v", code, res)
	}
	if res.Failed != res.Attempted || res.Attempted != 20 {
		t.Errorf("a failed check must count every arrival failed: %+v", res)
	}
	if d := firstDiff([]string{"a", "b"}, []string{"a", "b"}); d != "" {
		t.Errorf("identical rows differ: %s", d)
	}
	if digest([]string{"a", "b"}) == digest([]string{"a", "c"}) {
		t.Error("digest ignores a changed row")
	}
}

func TestSettleExactlyOnce(t *testing.T) {
	tr := workload.Trace{{At: 0, Function: "JS"}, {At: 1, Function: "JS"}, {At: 2, Function: "IR"}}
	o := newOutcomes()
	o.add("JS", faas.OutcomeSuccess)
	o.add("JS", faas.OutcomeError)
	o.add("IR", faas.OutcomeFallback)
	if failed, err := o.settle("t", tr); err != nil || failed != 1 {
		t.Errorf("settle = %d, %v; want 1 failed, no error", failed, err)
	}
	o.add("IR", faas.OutcomeSuccess)
	if _, err := o.settle("t", tr); err == nil {
		t.Error("an arrival settled twice passed")
	}
	short := newOutcomes()
	short.add("JS", faas.OutcomeSuccess)
	if _, err := short.settle("t", tr); err == nil {
		t.Error("unsettled arrivals passed")
	}
}

func TestSeedChangesTraceNotDefinition(t *testing.T) {
	a, b := azureTrace(1, nodeObsScale, 1), azureTrace(2, nodeObsScale, 1)
	if reflect.DeepEqual(a, b) {
		t.Error("seeds 1 and 2 drew the same Azure-like trace")
	}
	if !reflect.DeepEqual(azureTrace(1, nodeObsScale, 1), a) {
		t.Error("seed 1 drew two different traces")
	}
	if fa, fb := sortedKeys(a.CountByFunction()), sortedKeys(b.CountByFunction()); !slices.Equal(fa, fb) {
		t.Errorf("function sets differ across seeds: %v vs %v", fa, fb)
	}
	ta, tb := fig17Traces(1), fig17Traces(2)
	for i := range ta {
		if ta[i].name != tb[i].name || ta[i].cap != tb[i].cap {
			t.Errorf("fig17 trace %d: %s/%d vs %s/%d", i, ta[i].name, ta[i].cap, tb[i].name, tb[i].cap)
		}
		if reflect.DeepEqual(ta[i].gen(), tb[i].gen()) {
			t.Errorf("fig17 %s identical across seeds", ta[i].name)
		}
	}
	ca, cb := nodeObsConfig(1), nodeObsConfig(2)
	if ca.Seed == cb.Seed {
		t.Error("seed not passed to the simulator")
	}
	ca.Seed, cb.Seed = 0, 0
	if !reflect.DeepEqual(ca, cb) {
		t.Errorf("node config depends on the seed beyond Seed: %+v vs %+v", ca, cb)
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{10: 0, 100: 90, 1000: 99, 5000: 99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}
