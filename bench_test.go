// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment end to
// end on the simulated substrate; `go test -bench=. -benchmem` exercises
// the whole evaluation, and cmd/trenv-bench prints the paper-style rows.
//
// Scale: benchmarks default to 0.35x the paper's 30-minute workloads so
// the full suite stays in CI budgets; set TRENV_BENCH_SCALE=1 for
// paper-scale runs. A malformed or non-positive value fails the
// benchmark instead of falling back to the default.
package trenv_test

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// defaultBenchScale is the workload scale when TRENV_BENCH_SCALE is
// unset.
const defaultBenchScale = 0.35

// parseBenchScale reads a TRENV_BENCH_SCALE value: empty means the
// default, anything else must be a positive number.
func parseBenchScale(s string) (float64, error) {
	if s == "" {
		return defaultBenchScale, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(v > 0) || math.IsInf(v, 1) {
		return 0, fmt.Errorf("TRENV_BENCH_SCALE=%q: want a positive number", s)
	}
	return v, nil
}

func benchOptions(b *testing.B) experiments.Options {
	scale, err := parseBenchScale(os.Getenv("TRENV_BENCH_SCALE"))
	if err != nil {
		b.Fatal(err)
	}
	return experiments.Options{Seed: 1, Scale: scale}
}

func TestParseBenchScale(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"", defaultBenchScale, true},
		{"0.1", 0.1, true},
		{"1", 1, true},
		{"0", 0, false},
		{"-1", 0, false},
		{"0,1", 0, false},
		{"abc", 0, false},
		{"NaN", 0, false},
		{"Inf", 0, false},
	}
	for _, c := range cases {
		got, err := parseBenchScale(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("parseBenchScale(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), strconv.Quote(c.in)) {
			t.Errorf("parseBenchScale(%q) error %q does not name the value", c.in, err)
		}
	}
}

// runExperiment is the shared benchmark body.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	run, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	o := benchOptions(b)
	var r *experiments.Result
	for i := 0; i < b.N; i++ {
		r = run(o)
	}
	if r == nil || len(r.Lines) == 0 {
		b.Fatalf("%s produced no output", id)
	}
	b.ReportMetric(float64(len(r.Lines)), "rows")
}

// BenchmarkTable1ComponentOverheads regenerates Table 1: per-component
// sandbox creation costs vs TrEnv's reuse path.
func BenchmarkTable1ComponentOverheads(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2AgentCharacteristics regenerates Table 2: per-agent
// E2E latency, peak memory, and CPU time.
func BenchmarkTable2AgentCharacteristics(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable3TokenUsage regenerates Table 3: per-agent LLM tokens.
func BenchmarkTable3TokenUsage(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFig3RelativeCost regenerates Figure 3: serverless cost
// relative to LLM cost per agent.
func BenchmarkFig3RelativeCost(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig4Breakdown regenerates Figure 4: cold-start vs CRIU vs
// TrEnv startup breakdowns at 1 and 15 concurrent starts.
func BenchmarkFig4Breakdown(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig10ReadOnlyRatio regenerates Figure 10: read-only vs
// written page ratios per function.
func BenchmarkFig10ReadOnlyRatio(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig17W1W2 regenerates Figure 17: E2E latency distributions
// under the bursty (W1) and diurnal/tight-memory (W2) workloads across
// all six systems.
func BenchmarkFig17W1W2(b *testing.B) { runExperiment(b, "fig17") }

// BenchmarkFig18PeakMemory regenerates Figure 18: peak memory across the
// four workloads (a) and the 50-instance IR/IFR start (b).
func BenchmarkFig18PeakMemory(b *testing.B) { runExperiment(b, "fig18") }

// BenchmarkFig19NoConcurrency regenerates Figure 19: normalized E2E
// latency without concurrency, split into startup and execution.
func BenchmarkFig19NoConcurrency(b *testing.B) { runExperiment(b, "fig19") }

// BenchmarkFig20RealWorld regenerates Figure 20: P99 latency on the
// Azure-like and Huawei-like industrial traces, normalized to REAP+.
func BenchmarkFig20RealWorld(b *testing.B) { runExperiment(b, "fig20") }

// BenchmarkFig21Ablation regenerates Figure 21: the +Reconfig, +Cgroup,
// +mm-template optimization steps on IR and JS.
func BenchmarkFig21Ablation(b *testing.B) { runExperiment(b, "fig21") }

// BenchmarkFig22CXLvsRDMA regenerates Figure 22: execution latency of
// T-CXL vs T-RDMA at P75/P99 per function.
func BenchmarkFig22CXLvsRDMA(b *testing.B) { runExperiment(b, "fig22") }

// BenchmarkFig23VMStartup regenerates Figure 23: Blackjack startup
// latency across E2B, E2B+, vanilla CH, and TrEnv.
func BenchmarkFig23VMStartup(b *testing.B) { runExperiment(b, "fig23") }

// BenchmarkFig24BrowserSharing regenerates Figure 24: browser-agent E2E
// under overcommitment, TrEnv vs TrEnv-S.
func BenchmarkFig24BrowserSharing(b *testing.B) { runExperiment(b, "fig24") }

// BenchmarkFig25AgentMemory regenerates Figure 25: peak memory per agent
// across E2B, E2B+, and TrEnv.
func BenchmarkFig25AgentMemory(b *testing.B) { runExperiment(b, "fig25") }

// BenchmarkFig26MemoryTimeline regenerates Figure 26: memory usage over
// time (and usage x duration cost) for Map reduce and Blog summary.
func BenchmarkFig26MemoryTimeline(b *testing.B) { runExperiment(b, "fig26") }

// BenchmarkAblations exercises the design-choice knobs DESIGN.md calls
// out beyond the paper's figures: multi-layer hot/cold placement,
// hot-working-set promotion, EPT pre-population, per-user dedup, and
// Groundhog-style request isolation.
func BenchmarkAblations(b *testing.B) { runExperiment(b, "ablations") }

// BenchmarkSensitivity re-runs the W1 headline comparison with each
// calibration constant scaled 0.5x-2x, verifying orderings are robust.
func BenchmarkSensitivity(b *testing.B) { runExperiment(b, "sensitivity") }
