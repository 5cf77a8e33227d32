package report

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/workload"
)

// runNode drives a small seeded workload on a traced TrEnv-CXL node and
// returns the finished platform.
func runNode(t *testing.T, seed int64) *faas.Platform {
	t.Helper()
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	cfg.Seed = seed
	cfg.Node = "n0"
	cfg.Tracer = obs.NewTracer(0)
	pl := faas.New(cfg)
	profs := workload.Table4()[:3]
	var tr workload.Trace
	for i, p := range profs {
		if err := pl.Register(p); err != nil {
			t.Fatalf("register %s: %v", p.Name, err)
		}
		for j := 0; j < 8; j++ {
			tr = append(tr, workload.Invocation{
				At:       time.Duration(i*20+j*150) * time.Millisecond,
				Function: p.Name,
			})
		}
	}
	pl.RunTrace(tr)
	return pl
}

func TestFromPlatformBundlesEverything(t *testing.T) {
	r := FromPlatform("test", 0.5, runNode(t, 7))
	if r.Schema != Schema {
		t.Fatalf("schema = %q, want %q", r.Schema, Schema)
	}
	if r.Seed != 7 || r.Scale != 0.5 || r.Source != "test" {
		t.Fatalf("identity = %q/%d/%g", r.Source, r.Seed, r.Scale)
	}
	if r.Flags["policy"] != string(faas.PolicyTrEnvCXL) || r.Flags["node"] != "n0" {
		t.Fatalf("flags = %v", r.Flags)
	}
	if len(r.Metrics) == 0 {
		t.Fatal("no metrics gathered")
	}
	if len(r.Spans) == 0 {
		t.Fatal("no spans flattened")
	}
	if r.Analysis == nil || r.Analysis.Invocations != 24 {
		t.Fatalf("analysis = %+v", r.Analysis)
	}
	for i := 1; i < len(r.Spans); i++ {
		if r.Spans[i].StartUs < r.Spans[i-1].StartUs {
			t.Fatalf("spans out of virtual-time order at %d", i)
		}
	}
}

func TestSameSeedBundlesByteIdentical(t *testing.T) {
	var a, b bytes.Buffer
	if err := FromPlatform("test", 1, runNode(t, 3)).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := FromPlatform("test", 1, runNode(t, 3)).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same-seed bundles are not byte-identical")
	}
	var c bytes.Buffer
	if err := FromPlatform("test", 1, runNode(t, 4)).WriteJSON(&c); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("different seeds produced identical bundles")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bundle.json")
	orig := FromPlatform("test", 1, runNode(t, 5))
	if err := orig.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := orig.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := back.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("round trip changed the bundle")
	}
}

func TestDecodeRefusesWrongSchema(t *testing.T) {
	_, err := Decode(strings.NewReader(`{"schema":"trenv-report/v999"}`))
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong schema accepted (err=%v)", err)
	}
}

// Decode reads exactly one bundle: trailing bytes after it are an
// error, as they are for json.Unmarshal, so every loader of a bundle
// file accepts and refuses the same files.
func TestDecodeRefusesTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if err := New("test", 1, 1).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("valid bundle refused: %v", err)
	}
	buf.WriteString(`"x"`)
	if _, err := Decode(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("bundle followed by trailing data accepted")
	}
}

func TestThinPointsDeterministicAndBounded(t *testing.T) {
	var pts []obs.Point
	for i := 0; i < 1000; i++ {
		pts = append(pts, obs.Point{T: time.Duration(i) * time.Millisecond, Value: float64(i)})
	}
	thin := thinPoints(pts, 24)
	if len(thin) > 25 { // stride thinning may add the final point
		t.Fatalf("thinned to %d points, want <= 25", len(thin))
	}
	if thin[len(thin)-1] != pts[len(pts)-1] {
		t.Fatal("thinning dropped the final point")
	}
	again := thinPoints(pts, 24)
	if len(again) != len(thin) {
		t.Fatal("thinning is not deterministic")
	}
	for i := range thin {
		if thin[i] != again[i] {
			t.Fatal("thinning is not deterministic")
		}
	}
	short := thinPoints(pts[:10], 24)
	if len(short) != 10 {
		t.Fatalf("short series thinned from 10 to %d", len(short))
	}
}
