package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/faas"
	"repro/internal/sim"
)

// g renders a simulated statistic with every digit, so any change to a
// simulated result changes its row.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func histRow(h *sim.Histogram) string {
	return fmt.Sprintf("n=%d p50=%s p99=%s mean=%s max=%s",
		h.N(), g(h.Percentile(50)), g(h.Percentile(99)), g(h.Mean()), g(h.Max()))
}

// platformRows renders every simulated statistic a node exposes:
// per-function latency distributions, start-path and failure counters,
// page-fault traffic and peak memory. Host-side quantities (engine event
// counts, span counts) are left out: a simulator-only change may move
// those, but never these rows.
func platformRows(label string, pl *faas.Platform) []string {
	m := pl.Metrics()
	var rows []string
	for _, fn := range m.Functions() {
		fm := m.Fn(fn)
		rows = append(rows, fmt.Sprintf("%s fn=%s e2e{%s} startup{%s} exec{%s}",
			label, fn, histRow(&fm.E2E), histRow(&fm.Startup), histRow(&fm.Exec)))
	}
	rows = append(rows, fmt.Sprintf("%s paths warm=%d cold=%d repurpose=%d restore=%d evict=%d queued=%d promote=%d clean=%d",
		label, m.WarmHits.Value(), m.ColdStarts.Value(), m.Repurposes.Value(), m.Restores.Value(),
		m.Evictions.Value(), m.Queued.Value(), m.Promotions.Value(), m.CleanRestores.Value()))
	rows = append(rows, fmt.Sprintf("%s failures errors=%d fallbacks=%d retries=%d crash=%d cancelled=%d deadline=%d",
		label, m.Errors.Value(), m.Fallbacks.Value(), m.Retries.Value(), m.CrashAborts.Value(),
		m.Cancelled.Value(), m.DeadlineExceeded.Value()))
	rows = append(rows, fmt.Sprintf("%s prefetch rec=%d launch=%d batches=%d pages=%d hits=%d misses=%d promoted=%d",
		label, m.PrefetchRecordings.Value(), m.PrefetchLaunches.Value(), m.PrefetchBatches.Value(),
		m.PrefetchPages.Value(), m.PrefetchHits.Value(), m.PrefetchMisses.Value(), m.PromotedPages.Value()))
	fs := pl.FaultStats()
	rows = append(rows, fmt.Sprintf("%s faults %+v", label, fs))
	rows = append(rows, fmt.Sprintf("%s memory peak=%d used=%d warm=%d started=%d",
		label, pl.PeakMemory(), pl.UsedMemory(), pl.WarmCount(), pl.InvocationsStarted()))
	return rows
}

// digest is the hex SHA-256 of the rows, one per line.
func digest(rows []string) string {
	sum := sha256.Sum256([]byte(strings.Join(rows, "\n")))
	return hex.EncodeToString(sum[:])
}

// firstDiff names the first row that differs between two row sets ("" if
// they are identical).
func firstDiff(want, got []string) string {
	for i := 0; i < len(want) || i < len(got); i++ {
		switch {
		case i >= len(want):
			return "extra row " + got[i]
		case i >= len(got):
			return "missing row " + want[i]
		case want[i] != got[i]:
			return fmt.Sprintf("row %d: want %q, got %q", i, want[i], got[i])
		}
	}
	return ""
}

// tailPercentile is the highest percentile (at most p99) that leaves at
// least ten samples above it, so the reported tail rests on ten points.
func tailPercentile(n int) float64 {
	if n <= 10 {
		return 0
	}
	return math.Min(99, 100*(1-10/float64(n)))
}

// Paper per-function p99 speedup ranges of TrEnv-CXL (Fig 17, §9.2).
var paperSpeedup = map[faas.Policy][2]float64{
	faas.PolicyREAPPlus:    {1.11, 5.69},
	faas.PolicyFaaSnapPlus: {1.17, 18},
}

// speedupRange is the min and max per-function p99 speedup of target
// over ref, over functions both ran.
func speedupRange(ref, target map[string]float64) (lo, hi float64) {
	for fn, r := range ref {
		t, ok := target[fn]
		if !ok || t == 0 {
			continue
		}
		s := r / t
		if lo == 0 || s < lo {
			lo = s
		}
		hi = math.Max(hi, s)
	}
	return lo, hi
}

// fidelityLine reports the simulated TrEnv-CXL per-function p99 speedup
// ranges beside the paper's, with the relative error of each bound.
func fidelityLine(trace string, p99 map[faas.Policy]map[string]float64) string {
	var parts []string
	for _, ref := range []faas.Policy{faas.PolicyREAPPlus, faas.PolicyFaaSnapPlus} {
		lo, hi := speedupRange(p99[ref], p99[faas.PolicyTrEnvCXL])
		want := paperSpeedup[ref]
		parts = append(parts, fmt.Sprintf("vs %s %.2f-%.2fx (paper %.2f-%.2fx, error %+.0f%%/%+.0f%%)",
			ref, lo, hi, want[0], want[1], 100*(lo/want[0]-1), 100*(hi/want[1]-1)))
	}
	return fmt.Sprintf("fidelity fig17 %s: T-CXL per-function p99 speedup %s; other rows have no paper reference",
		trace, strings.Join(parts, ", "))
}
