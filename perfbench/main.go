// Command perfbench is the TrEnv simulator's benchmark of record. It
// drives the simulator through its public functions on three
// trace-driven workloads (fig17, node-obs, rack-chaos), checks that the
// simulated results repeat exactly, and prints every metric by name
// and unit; the last line of standard output is one JSON object.
//
//	go run . --workload fig17 --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics with tracing off; --trace 1
// alternates untraced and traced repeats and reports per-layer CPU and
// allocation shares, work counts, unit costs and layer probes, writing
// the spans, CPU profile and simulated rows under --out. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tracedMemProfileRate is the allocation sampling rate, in bytes, while
// a traced repeat runs; untraced repeats keep the runtime default.
const tracedMemProfileRate = 4096

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fig17, node-obs or rack-chaos")
	seed := fs.Int64("seed", 1, "seed the workload's traces and simulators are drawn from")
	seconds := fs.Float64("seconds", 10, "host seconds to keep repeating the workload")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for rows, spans and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload fig17|node-obs|rack-chaos, --seconds > 0, --trace 0|1\n")
		return 2
	}
	// The simulator runs one proc at a time; two Ps leave the collector
	// its own core, as on the 2-core hosts the numbers were taken on.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), out: *out, log: stdout}
	var res result
	var err error
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		var ce *checkError
		if !errors.As(err, &ce) {
			return 1
		}
		// A failed output check still reports, with every arrival failed.
		res.Correct = false
		res.Attempted = max(res.Attempted, 1)
		res.Failed = res.Attempted
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", jerr)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if err != nil {
		return 1
	}
	return 0
}

// checkError is a failed output check: the simulator produced a result
// other than the one it must.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "output check failed: " + e.msg }

// bench runs one workload at one seed.
type bench struct {
	w      workloadDef
	seed   int64
	budget time.Duration
	out    string
	log    io.Writer

	first     *repeat // rows every later repeat must equal
	last      *repeat // most recent repeat, its systems still reachable
	repeats   int
	attempted int
	failed    int
}

// repeatOnce runs the workload once under m and checks its rows against
// the first repeat's. It releases the previous repeat's systems first,
// so only one repeat's state is live at a time.
func (b *bench) repeatOnce(m *meter) (*repeat, error) {
	if b.last != nil {
		b.last.state, b.last.probe = nil, probeTarget{}
	}
	r, err := b.w.once(b.seed, m)
	if err != nil {
		return nil, &checkError{err.Error()}
	}
	b.repeats++
	b.attempted += r.arrivals
	b.failed += r.failed
	b.last = r
	if b.first == nil {
		b.first = r
		for _, n := range r.notes {
			fmt.Fprintln(b.log, n)
		}
		return r, nil
	}
	if d := firstDiff(b.first.rows, r.rows); d != "" {
		return r, &checkError{fmt.Sprintf("repeat %d differs from repeat 1 at the same seed: %s", b.repeats, d)}
	}
	return r, nil
}

// checkObsOff runs node-obs's node without observability, untimed, and
// requires the same simulated rows: attaching obs must change no result.
// It returns the obs-off leg's CPU time.
func (b *bench) checkObsOff() (time.Duration, error) {
	if b.w.name != "node-obs" {
		return 0, nil
	}
	c0 := cpuTime()
	ref, err := nodeRun(b.seed, &meter{}, false)
	used := cpuTime() - c0
	if err != nil {
		return 0, &checkError{err.Error()}
	}
	if d := firstDiff(ref.rows, b.first.rows); d != "" {
		return 0, &checkError{"observability changed a simulated result: " + d}
	}
	return used, nil
}

func (b *bench) newResult() result {
	return result{Correct: true, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
}

// setupSamples is how many set-up-only passes precede the timed
// repeats; setup_s is their median. Each starts after a collection, so
// garbage left by the previous pass does not bill its collection to
// the next.
const setupSamples = 9

// untraced repeats the workload with tracing off until the time budget
// is spent (at least twice, so the rows can be compared) and reports the
// end-to-end metrics.
func (b *bench) untraced() (result, error) {
	var setups, rates []float64
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		m := &meter{setupOnly: true}
		if _, err := b.w.once(b.seed, m); err != nil {
			return b.newResult(), &checkError{err.Error()}
		}
		setups = append(setups, m.setupCPU.Seconds())
	}
	var mallocs, allocated uint64
	var arrivals int
	for t0 := time.Now(); b.repeats < 2 || time.Since(t0) < b.budget; {
		m := &meter{}
		if _, err := b.repeatOnce(m); err != nil {
			return b.newResult(), err
		}
		rates = append(rates, float64(m.arrivals)/m.runCPU.Seconds())
		mallocs += m.mallocs
		allocated += m.allocated
		arrivals += m.arrivals
	}
	res := b.newResult()
	if _, err := b.checkObsOff(); err != nil {
		return res, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(b.last.state)

	r := b.last
	b.report(r)
	fmt.Fprintf(b.log, "inv_per_s by repeat: %.0f\n", rates)
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	put("inv_per_s", "1/s", median(rates))
	put("setup_s", "s", median(setups))
	put("allocs_per_inv", "count", float64(mallocs)/float64(arrivals))
	put("alloc_kb_per_inv", "kB", float64(allocated)/1e3/float64(arrivals))
	put("live_heap_mb", "MB", float64(ms.HeapAlloc)/1e6)
	put("ok_pct", "%", 100*(1-float64(b.failed)/float64(b.attempted)))
	put("sim_mean_ms", "ms", r.tcxl.Mean())
	return res, nil
}

// report prints the repeat count, the simulated-row digest and the
// simulated latency percentiles with their sample count.
func (b *bench) report(r *repeat) {
	fmt.Fprintf(b.log, "%s seed=%d repeats=%d rows=%d digest=%s\n", b.w.name, b.seed, b.repeats, len(r.rows), digest(r.rows))
	fmt.Fprintf(b.log, "simulated TrEnv-CXL E2E: p50=%.4gms p%.4g=%.4gms mean=%.4gms over %d samples\n",
		r.tcxl.Percentile(50), tailPercentile(r.tcxl.N()), r.tcxl.Percentile(tailPercentile(r.tcxl.N())), r.tcxl.Mean(), r.tcxl.N())
}

// traced alternates untraced and traced repeats until the time budget is
// spent (at least one pair). Traced repeats run under the CPU profiler,
// with allocation sampling at tracedMemProfileRate and the benchmark's
// spans on; the per-layer metrics come from them.
func (b *bench) traced() (result, error) {
	spans := newSpanLog()
	var plain, withTrace []float64
	cpu := map[string]int64{}
	alloc := map[string]float64{}
	var cpuProfile []byte
	defaultRate := runtime.MemProfileRate
	for t0 := time.Now(); len(withTrace) < 1 || time.Since(t0) < b.budget; {
		c0 := cpuTime()
		if _, err := b.repeatOnce(&meter{}); err != nil {
			return b.newResult(), err
		}
		plain = append(plain, (cpuTime() - c0).Seconds())

		runtime.MemProfileRate = tracedMemProfileRate
		before := takeMemSnapshot()
		var buf bytes.Buffer
		c0 = cpuTime()
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return b.newResult(), err
		}
		_, err := b.repeatOnce(&meter{spans: spans})
		pprof.StopCPUProfile()
		withTrace = append(withTrace, (cpuTime() - c0).Seconds())
		after := takeMemSnapshot()
		runtime.MemProfileRate = defaultRate
		if err != nil {
			return b.newResult(), err
		}
		for l, v := range allocByLayer(before, after, tracedMemProfileRate) {
			alloc[l] += v
		}
		byLayer, perr := cpuByLayer(buf.Bytes())
		if perr != nil {
			return b.newResult(), perr
		}
		for l, v := range byLayer {
			cpu[l] += v
		}
		cpuProfile = buf.Bytes()
	}
	res := b.newResult()
	obsOff, err := b.checkObsOff()
	if err != nil {
		return res, err
	}
	r := b.last
	pr := runProbes(r.probe, b.seed, &meter{spans: spans}, 2*time.Second)

	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	k := float64(len(withTrace))
	var cpuTotal int64
	var allocTotal float64
	for _, l := range layers {
		cpuTotal += cpu[l]
		allocTotal += alloc[l]
	}
	for _, l := range layers {
		put(l+".cpu_pct", "%", 100*ratio(float64(cpu[l]), float64(cpuTotal)))
		put(l+".alloc_pct", "%", 100*ratio(alloc[l], allocTotal))
	}
	// layerNs is a layer's CPU per traced repeat, in ns.
	layerNs := func(l string) float64 { return float64(cpu[l]) / k }
	c := r.counts
	inv, done := float64(c.started), float64(c.recorded)
	pages := float64(c.faults.MinorFaults + c.faults.MajorFaults + c.faults.DirectAccess)
	put("sim.events_per_inv", "count", ratio(float64(c.events), inv))
	put("sim.ns_per_event", "ns", ratio(layerNs("sim"), float64(c.events)))
	put("pagetable.major_faults_per_inv", "count", ratio(float64(c.faults.MajorFaults), inv))
	put("pagetable.cow_pages_per_inv", "count", ratio(float64(c.faults.CowPages), inv))
	put("pagetable.direct_pages_per_inv", "count", ratio(float64(c.faults.DirectAccess), inv))
	put("pagetable.ns_per_page", "ns", ratio(layerNs("pagetable"), pages))
	put("pagetable.prefetch_wait_ms", "ms", float64(c.faults.PrefetchWaitNs)/1e6)
	put("pagetable.access_ns_per_page", "ns", pr.accessNsPerPage)
	put("mem.fetches_per_inv", "count", ratio(float64(c.poolFetches), inv))
	put("mem.batch_pages_per_inv", "count", ratio(float64(c.batchPages), inv))
	put("mem.cliffs", "count", float64(c.cliffs))
	put("mmtemplate.attaches", "count", float64(c.attaches))
	put("mmtemplate.sharing_factor", "count", ratio(c.attached, c.templates))
	put("mmtemplate.attach_us", "us", pr.attachUs)
	put("faas.warm_hit_ratio", "ratio", ratio(float64(c.warm), done))
	put("faas.evictions", "count", float64(c.evictions))
	put("faas.queued", "count", float64(c.queued))
	put("failed_pct", "%", 100*ratio(float64(b.failed), float64(b.attempted)))
	put("core.restores_per_inv", "count", ratio(float64(c.restores), done))
	put("core.repurposes_per_inv", "count", ratio(float64(c.repurposes), done))
	put("core.cold_starts_per_inv", "count", ratio(float64(c.coldStarts), done))
	put("core.startup_p99_ms", "ms", c.startup.Percentile(tailPercentile(c.startup.N())))
	put("core.exec_p99_ms", "ms", c.exec.Percentile(tailPercentile(c.exec.N())))
	put("prefetch.hit_ratio", "ratio", ratio(float64(c.pfHits), float64(c.pfHits+c.pfMisses)))
	put("cluster.hedges", "count", float64(c.hedged))
	put("cluster.hedge_win_ratio", "ratio", ratio(float64(c.hedgeWins), float64(c.hedged)))
	put("cluster.redispatched", "count", float64(c.redispatched))
	put("cluster.wedged", "count", float64(c.wedged))
	put("obs.spans", "count", float64(c.spans))
	put("obs.recorder_samples", "count", float64(c.samples))
	put("obs.ns_per_sample", "ns", ratio(layerNs("obs"), float64(c.samples)))
	put("obs.gather_us", "us", pr.gatherUs)
	put("obs.scrape_us", "us", pr.scrapeUs)
	obsX := 0.0 // observability is detached on fig17 and rack-chaos
	if obsOff > 0 {
		obsX = median(plain) / obsOff.Seconds()
	}
	put("obs.overhead_x", "x", obsX)
	put("sim_p50_ms", "ms", r.tcxl.Percentile(50))
	put("sim_p99_ms", "ms", r.tcxl.Percentile(tailPercentile(r.tcxl.N())))
	put("sim_peak_mem_gb", "GB", float64(r.peakMem)/1e9)
	put("trace.overhead_pct", "%", 100*(median(withTrace)/median(plain)-1))

	b.report(r)
	return res, b.writeArtifacts(spans, cpuProfile, r.rows)
}

// writeArtifacts leaves the traced run's spans, last CPU profile and
// simulated rows under the output directory.
func (b *bench) writeArtifacts(spans *spanLog, cpuProfile []byte, rows []string) error {
	base := filepath.Join(b.out, fmt.Sprintf("%s-seed%d", b.w.name, b.seed))
	if err := spans.writeChrome(base + ".spans.json"); err != nil {
		return err
	}
	if err := os.WriteFile(base+".cpu.pprof", cpuProfile, 0o644); err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, row := range rows {
		buf.WriteString(row)
		buf.WriteByte('\n')
	}
	return os.WriteFile(base+".rows.txt", buf.Bytes(), 0o644)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
