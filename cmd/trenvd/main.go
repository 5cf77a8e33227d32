// Command trenvd exposes the simulated TrEnv platform over HTTP: deploy
// Table 4 functions, drive invocation batches, and read metrics. It is a
// control plane for interactive exploration — the simulation advances in
// virtual time whenever a batch is submitted.
//
// Usage:
//
//	trenvd [-addr :8080] [-policy trenv-cxl] [-seed 1] [-node n0]
//	       [-slo-target-ms 0] [-slo-objective 0.99] [-sample-ms 100]
//	       [-prefetch] [-promote-threshold 0] [-pprof] [-rules <spec>]
//	       [-hedge-policy <spec>] [-hedge-delay <dur>]
//	trenvd -version
//
// -node labels every exported series (node="n0") so several trenvd
// instances can be scraped into one fleet view; -slo-target-ms enables
// SLO burn-rate tracking; -sample-ms sets the flight-recorder sampling
// interval in virtual milliseconds; -prefetch enables working-set
// prefetching on TrEnv policies (first run of a function records its
// fault order, later restores replay it as batched remote fetches);
// -promote-threshold additionally promotes runs replayed at least that
// many times into the node's direct-access cache; -pprof additionally
// serves Go's net/http/pprof profiles under /debug/pprof/ (off by
// default — profiling is wall-clock-side only and never perturbs the
// deterministic virtual-time exports); -rules loads alerting rules (a
// compact spec, "@file" to read one clause per line, or "default" for
// the built-in set) evaluated on every flight-recorder sample and
// served on /alerts; -hedge-policy arms a request-hedging policy
// ("delay:<dur>", "p<pct>", "clone:<n>" — README has the grammar) on
// every cluster POST /experiments/run builds, and -hedge-delay is
// shorthand for "delay:<dur>"; -version prints the build and exits.
//
// Endpoints:
//
//	GET  /functions            list registered and available functions
//	POST /functions            {"name":"JS"} deploy a Table 4 function
//	POST /invoke               {"function":"JS","count":5,"spacing_ms":100}
//	GET  /stats                aggregate + per-function metrics
//	GET  /metrics              Prometheus text-format metrics
//	GET  /timeseries           flight-recorder series (?format=csv for CSV)
//	GET  /trace?last=N         Chrome trace JSON of the last N invocations
//	                           (?format=jsonl for span JSONL)
//	GET  /analyze              trace analytics: top-k slowest invocations
//	                           with critical paths, per-function phase
//	                           attribution, tail-vs-median diffs, exemplar
//	                           links (?last=N ?top=K)
//	GET  /flame                folded-stack flamegraph of recorded spans
//	                           (?format=folded; flamegraph.pl compatible)
//	GET  /report               schema-stable trenv-report/v1 run bundle
//	                           (identity, metrics, series, spans, trace
//	                           analytics) for cmd/trenv-diff comparison
//	GET  /experiments          list experiment IDs
//	POST /experiments/run      {"id":"fig23","scale":0.2} regenerate one
//	GET  /alerts               alert-engine snapshot: rule states,
//	                           captured incidents with trace links, and
//	                           the virtual-time transition timeline
//	GET  /selfstats            wall-clock engine stats: uptime, events
//	                           executed, events/sec of wall time, heap
//	                           and GC readings, build identity
//	GET  /debug/pprof/         Go runtime profiles (only with -pprof)
//	GET  /healthz              node, circuit-breaker, and pool status
//	POST /chaos                {"spec":"outage:cxl:1s-2s,..."} arm a
//	                           deterministic fault schedule (or pass a
//	                           structured {"scenario":{...}}; 409 if armed)
//	GET  /chaos                armed schedule + injected-fault counts
//
// SIGINT/SIGTERM triggers a graceful shutdown that drains in-flight
// requests for up to -drain-timeout before closing.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	trenv "repro"
)

type server struct {
	mu       sync.Mutex
	platform *trenv.ContainerPlatform
	tracer   *trenv.Tracer
	registry *trenv.MetricsRegistry
	recorder *trenv.FlightRecorder
	recEvery time.Duration
	alertEng *trenv.AlertEngine // evaluated on every flight-recorder sample
	deployed map[string]bool
	now      time.Duration // virtual time high-water mark
	seed     int64
	breaker  *trenv.CircuitBreaker // fed by every terminal outcome
	chaos    *trenv.FaultInjector  // non-nil once POST /chaos armed a schedule
	labels   map[string]string     // node label applied to registered metrics
	started  time.Time             // wall-clock start, denominator for /selfstats rates
	pprof    bool                  // serve /debug/pprof/ when set
	hedge    *trenv.HedgePolicy    // armed on every cluster POST /experiments/run builds
}

// serverOptions parameterize the control plane beyond policy and seed.
type serverOptions struct {
	policy       trenv.ContainerPolicy
	seed         int64
	node         string        // node label on every series ("" = unlabeled)
	sloTarget    time.Duration // > 0 enables SLO burn-rate tracking
	sloObjective float64
	sampleEvery  time.Duration // flight-recorder interval (<= 0 = default)
	prefetch     bool          // working-set prefetching (TrEnv policies only)
	promoteAfter int           // replay count that promotes a run (0 = never)
	pprof        bool          // serve net/http/pprof under /debug/pprof/
	rules        []trenv.AlertRule
	hedge        *trenv.HedgePolicy // hedge policy for POST /experiments/run clusters
}

// newServer builds the control plane over a fresh simulated platform
// with the built-in alert rules, matching the -rules flag default.
func newServer(policy trenv.ContainerPolicy, seed int64) *server {
	return newServerWith(serverOptions{policy: policy, seed: seed, rules: trenv.DefaultAlertRules()})
}

func newServerWith(o serverOptions) *server {
	cfg := trenv.DefaultContainerConfig(o.policy)
	cfg.Seed = o.seed
	cfg.SLOTarget = o.sloTarget
	cfg.SLOObjective = o.sloObjective
	cfg.Node = o.node
	cfg.Prefetch = o.prefetch
	cfg.PromoteThreshold = o.promoteAfter
	tracer := trenv.NewTracer(0)
	cfg.Tracer = tracer
	eng := trenv.NewEngine(o.seed)
	cfg.Engine = eng
	breaker := trenv.NewCircuitBreaker(trenv.DefaultCircuitBreakerConfig(), eng.Now)
	cfg.OnResult = func(r trenv.InvocationResult) {
		// A fault-tainted outcome (typed error or retried/fallback-served
		// invocation) counts against the node's pool-fetch health.
		breaker.Record(r.FaultTrace == "" && r.Outcome != trenv.OutcomeError)
	}
	pl := trenv.NewContainerPlatform(cfg)
	var labels map[string]string
	if o.node != "" {
		labels = map[string]string{"node": o.node}
	}
	reg := trenv.NewMetricsRegistry()
	pl.RegisterMetricsLabeled(reg, labels)
	reg.GaugeFunc("trenv_breaker_state", "Circuit-breaker position (0 closed, 1 open, 2 half-open).", labels,
		func() float64 { return float64(breaker.State()) })
	reg.CounterFunc("trenv_breaker_opens_total", "Circuit-breaker trips to open.", labels, breaker.Opens)
	trenv.RegisterTracerDrops(reg, labels, tracer)
	trenv.RegisterBuildInfo(reg, labels)
	recorder := trenv.NewFlightRecorder(reg, 0)
	alerts := trenv.NewAlertEngine(o.rules)
	alerts.RegisterMetrics(reg, labels)
	pl.AttachAlerts(alerts) // wires the tracer and SLO into incident capture
	// The invoke handler pumps the recorder by hand (no RunTrace here),
	// so bind evaluation to the sampler directly.
	alerts.Observe(recorder)
	return &server{
		platform: pl,
		tracer:   tracer,
		registry: reg,
		recorder: recorder,
		recEvery: o.sampleEvery,
		alertEng: alerts,
		deployed: make(map[string]bool),
		seed:     o.seed,
		breaker:  breaker,
		labels:   labels,
		started:  time.Now(),
		pprof:    o.pprof,
		hedge:    o.hedge,
	}
}

// mux routes the API. Each route also registers a method-agnostic
// fallback so an unsupported method gets a JSON 405 with an Allow
// header instead of the mux's plain-text default.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /functions", s.listFunctions)
	mux.HandleFunc("POST /functions", s.deployFunction)
	mux.HandleFunc("/functions", methodNotAllowed("GET", "POST"))
	mux.HandleFunc("POST /invoke", s.invoke)
	mux.HandleFunc("/invoke", methodNotAllowed("POST"))
	mux.HandleFunc("GET /stats", s.stats)
	mux.HandleFunc("/stats", methodNotAllowed("GET"))
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("/metrics", methodNotAllowed("GET"))
	mux.HandleFunc("GET /timeseries", s.timeseries)
	mux.HandleFunc("/timeseries", methodNotAllowed("GET"))
	mux.HandleFunc("GET /trace", s.trace)
	mux.HandleFunc("/trace", methodNotAllowed("GET"))
	mux.HandleFunc("GET /analyze", s.analyze)
	mux.HandleFunc("/analyze", methodNotAllowed("GET"))
	mux.HandleFunc("GET /flame", s.flame)
	mux.HandleFunc("/flame", methodNotAllowed("GET"))
	mux.HandleFunc("GET /report", s.report)
	mux.HandleFunc("/report", methodNotAllowed("GET"))
	mux.HandleFunc("GET /experiments", s.listExperiments)
	mux.HandleFunc("/experiments", methodNotAllowed("GET"))
	mux.HandleFunc("POST /experiments/run", s.runExperiment)
	mux.HandleFunc("/experiments/run", methodNotAllowed("POST"))
	mux.HandleFunc("GET /alerts", s.alerts)
	mux.HandleFunc("/alerts", methodNotAllowed("GET"))
	mux.HandleFunc("GET /selfstats", s.selfstats)
	mux.HandleFunc("/selfstats", methodNotAllowed("GET"))
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("/healthz", methodNotAllowed("GET"))
	mux.HandleFunc("GET /chaos", s.chaosStatus)
	mux.HandleFunc("POST /chaos", s.armChaos)
	mux.HandleFunc("/chaos", methodNotAllowed("GET", "POST"))
	if s.pprof {
		// Wall-clock-side profiling of the server process. Reading a
		// profile never touches the virtual clock or the event order, so
		// deterministic exports stay byte-identical with -pprof on.
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	return mux
}

// methodNotAllowed answers any method the route does not support.
func methodNotAllowed(allowed ...string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", strings.Join(allowed, ", "))
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{
			"error": fmt.Sprintf("method %s not allowed (allow: %s)", r.Method, strings.Join(allowed, ", ")),
		})
	}
}

// loadRules resolves the -rules flag: the built-in set by default,
// "none" for an empty engine, "@file" for a rule file, anything else
// parsed as a compact spec.
func loadRules(arg string) ([]trenv.AlertRule, error) {
	switch arg {
	case "default":
		return trenv.DefaultAlertRules(), nil
	case "", "none":
		return nil, nil
	}
	return trenv.LoadAlertRules(arg)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	policy := flag.String("policy", string(trenv.TrEnvCXL), "platform policy")
	seed := flag.Int64("seed", 1, "simulation seed")
	node := flag.String("node", "", "node label stamped on every exported series")
	sloTargetMS := flag.Int("slo-target-ms", 0, "per-invocation latency SLO target in ms (0 disables SLO tracking)")
	sloObjective := flag.Float64("slo-objective", 0, "fraction of invocations that must meet the target (default 0.99)")
	sampleMS := flag.Int("sample-ms", 0, "flight-recorder sampling interval in virtual ms (0 = default)")
	prefetch := flag.Bool("prefetch", false, "enable working-set prefetching (TrEnv policies only)")
	promoteAfter := flag.Int("promote-threshold", 0, "replay count that promotes a working set into the direct-access cache (0 = never; needs -prefetch)")
	rulesSpec := flag.String("rules", "default", "alerting rules: a spec string, @file, \"default\" for the built-in set, or \"none\"")
	hedgePolicy := flag.String("hedge-policy", "", "request-hedging policy for POST /experiments/run clusters, e.g. 'delay:50ms', 'p95', 'clone:2'")
	hedgeDelay := flag.Duration("hedge-delay", 0, "shorthand for -hedge-policy delay:<dur>")
	drain := flag.Duration("drain-timeout", 5*time.Second, "bounded drain window for graceful shutdown on SIGINT/SIGTERM")
	pprofOn := flag.Bool("pprof", false, "serve Go net/http/pprof profiles under /debug/pprof/")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Printf("trenvd %s %s %s/%s\n", trenv.Version(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
		return
	}

	rules, err := loadRules(*rulesSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trenvd:", err)
		os.Exit(2)
	}

	var hedge *trenv.HedgePolicy
	switch {
	case *hedgePolicy != "" && *hedgeDelay != 0:
		fmt.Fprintln(os.Stderr, "trenvd: -hedge-policy and -hedge-delay are mutually exclusive")
		os.Exit(2)
	case *hedgeDelay < 0:
		fmt.Fprintln(os.Stderr, "trenvd: -hedge-delay must be positive")
		os.Exit(2)
	case *hedgeDelay != 0:
		hedge = &trenv.HedgePolicy{Mode: trenv.HedgeDelay, Delay: *hedgeDelay}
	case *hedgePolicy != "":
		hp, err := trenv.ParseHedgePolicy(*hedgePolicy)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trenvd: -hedge-policy:", err)
			os.Exit(2)
		}
		if hp.Enabled() {
			hedge = &hp
		}
	}

	s := newServerWith(serverOptions{
		policy:       trenv.ContainerPolicy(*policy),
		seed:         *seed,
		node:         *node,
		sloTarget:    time.Duration(*sloTargetMS) * time.Millisecond,
		sloObjective: *sloObjective,
		sampleEvery:  time.Duration(*sampleMS) * time.Millisecond,
		prefetch:     *prefetch,
		promoteAfter: *promoteAfter,
		pprof:        *pprofOn,
		rules:        rules,
		hedge:        hedge,
	})
	srv := &http.Server{Addr: *addr, Handler: s.mux()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("trenvd: policy=%s listening on %s", *policy, *addr)
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // a second signal kills immediately
		log.Printf("trenvd: shutting down, draining in-flight requests for up to %s", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("trenvd: drain window expired: %v (closing)", err)
			srv.Close()
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("trenvd: write response: %v", err)
	}
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// parseFormat validates ?format= against a route's choices. An empty
// format selects the first choice; anything else gets the same JSON 400
// on every export route. Returns ok=false after writing the error.
func parseFormat(w http.ResponseWriter, r *http.Request, choices ...string) (string, bool) {
	format := r.URL.Query().Get("format")
	if format == "" {
		return choices[0], true
	}
	for _, c := range choices {
		if format == c {
			return format, true
		}
	}
	httpError(w, http.StatusBadRequest, "bad format=%q (want one of %s)", format, strings.Join(choices, ", "))
	return "", false
}

// parseLast validates ?last= (0 = everything). Returns ok=false after
// writing a JSON 400 for a malformed value.
func parseLast(w http.ResponseWriter, r *http.Request) (int, bool) {
	q := r.URL.Query().Get("last")
	if q == "" {
		return 0, true
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 {
		httpError(w, http.StatusBadRequest, "bad last=%q (want a non-negative integer)", q)
		return 0, false
	}
	return n, true
}

func (s *server) listFunctions(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	type fn struct {
		Name     string `json:"name"`
		Lang     string `json:"lang"`
		MemBytes int64  `json:"mem_bytes"`
		Deployed bool   `json:"deployed"`
	}
	var out []fn
	for _, p := range trenv.Functions() {
		out = append(out, fn{Name: p.Name, Lang: p.Lang, MemBytes: p.MemBytes, Deployed: s.deployed[p.Name]})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) deployFunction(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	prof, err := trenv.FunctionByName(req.Name)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.deployed[req.Name] {
		httpError(w, http.StatusConflict, "function %q already deployed", req.Name)
		return
	}
	if err := s.platform.Register(prof); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.deployed[req.Name] = true
	writeJSON(w, http.StatusCreated, map[string]string{"deployed": req.Name})
}

func (s *server) invoke(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Function  string `json:"function"`
		Count     int    `json:"count"`
		SpacingMS int    `json:"spacing_ms"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	if req.Count <= 0 {
		req.Count = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.deployed[req.Function] {
		httpError(w, http.StatusNotFound, "function %q not deployed", req.Function)
		return
	}
	before := s.platform.Metrics().Fn(req.Function).E2E.N()
	at := s.now
	for i := 0; i < req.Count; i++ {
		s.platform.Invoke(at, req.Function)
		at += time.Duration(req.SpacingMS) * time.Millisecond
	}
	// Sample the flight recorder across the batch; repeated batches
	// resume cleanly because duplicate-instant samples are dropped.
	batchEnd := at
	eng := s.platform.Engine()
	s.recorder.PumpWhile(eng, s.recEvery, func() bool {
		return eng.Now() < batchEnd || s.platform.Active() > 0
	})
	s.platform.Engine().Run()
	s.now = s.platform.Engine().Now()
	m := s.platform.Metrics().Fn(req.Function)
	writeJSON(w, http.StatusOK, map[string]any{
		"completed":    m.E2E.N() - before,
		"virtual_time": s.now.String(),
		"e2e_p50_ms":   m.E2E.Percentile(50),
		"e2e_p99_ms":   m.E2E.Percentile(99),
		"startup_p99":  m.Startup.Percentile(99),
	})
}

func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"metrics":        s.platform.Metrics().Export(),
		"peak_memory":    s.platform.PeakMemory(),
		"virtual_time":   s.now.String(),
		"warm_instances": s.platform.WarmCount(),
	})
}

// metrics serves the registry in Prometheus text format.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	var buf bytes.Buffer
	err := s.registry.WritePrometheus(&buf)
	s.mu.Unlock()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := w.Write(buf.Bytes()); err != nil {
		log.Printf("trenvd: write metrics: %v", err)
	}
}

// timeseries serves the flight recorder's sampled series as JSON, or
// CSV with ?format=csv. Same-seed servers driven with identical batches
// produce byte-identical exports.
func (s *server) timeseries(w http.ResponseWriter, r *http.Request) {
	format, ok := parseFormat(w, r, "json", "csv")
	if !ok {
		return
	}
	s.mu.Lock()
	var buf bytes.Buffer
	var err error
	if format == "csv" {
		err = s.recorder.WriteCSV(&buf)
	} else {
		err = s.recorder.WriteJSON(&buf)
	}
	s.mu.Unlock()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	ct := "application/json"
	if format == "csv" {
		ct = "text/csv"
	}
	w.Header().Set("Content-Type", ct)
	if _, err := w.Write(buf.Bytes()); err != nil {
		log.Printf("trenvd: write timeseries: %v", err)
	}
}

// trace serves the most recent invocation span trees as Chrome
// trace-event JSON (open in chrome://tracing or Perfetto), or as span
// JSONL with ?format=jsonl.
func (s *server) trace(w http.ResponseWriter, r *http.Request) {
	format, ok := parseFormat(w, r, "chrome", "jsonl")
	if !ok {
		return
	}
	last, ok := parseLast(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	roots := s.tracer.Last(last)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	var err error
	if format == "jsonl" {
		err = trenv.WriteSpansJSONL(w, roots)
	} else {
		err = trenv.WriteChromeTrace(w, roots)
	}
	if err != nil {
		log.Printf("trenvd: write trace: %v", err)
	}
}

// analyze serves the trace-analytics report: top-k slowest invocations
// with critical paths, per-function phase attribution at P50/P99/P999,
// tail-vs-median span diffs, and exemplar links into /metrics. Reports
// from same-seed servers driven with identical batches are
// byte-identical.
func (s *server) analyze(w http.ResponseWriter, r *http.Request) {
	if _, ok := parseFormat(w, r, "json"); !ok {
		return
	}
	last, ok := parseLast(w, r)
	if !ok {
		return
	}
	top := 0
	if q := r.URL.Query().Get("top"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			httpError(w, http.StatusBadRequest, "bad top=%q (want a positive integer)", q)
			return
		}
		top = n
	}
	s.mu.Lock()
	rep := trenv.AnalyzeSpans(s.tracer.Last(last), top)
	rep.Exemplars = s.platform.Metrics().ExemplarLinks()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, rep)
}

// flame serves recorded spans as folded flamegraph stacks
// (flamegraph.pl / speedscope compatible).
func (s *server) flame(w http.ResponseWriter, r *http.Request) {
	if _, ok := parseFormat(w, r, "folded"); !ok {
		return
	}
	last, ok := parseLast(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	roots := s.tracer.Last(last)
	s.mu.Unlock()
	var buf bytes.Buffer
	if err := trenv.WriteFoldedStacks(&buf, roots); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if _, err := w.Write(buf.Bytes()); err != nil {
		log.Printf("trenvd: write flame: %v", err)
	}
}

// report serves the schema-stable trenv-report/v1 run bundle over the
// server's full observable state: identity (seed, policy, node), the
// registry's end-state metrics, the flight recorder's sampled series,
// trace analytics, and the flattened virtual-time-ordered span list.
// Same-seed servers driven with identical batches serve byte-identical
// bundles, which is what lets cmd/trenv-diff compare two daemons.
func (s *server) report(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	rep := trenv.NewRunReport("trenvd", s.seed, 1)
	rep.SetFlag("policy", string(s.platform.Policy()))
	if node := s.platform.NodeName(); node != "" {
		rep.SetFlag("node", node)
	}
	rep.AddMetrics("", s.registry)
	rep.AddRecorder("", s.recorder, 0)
	rep.AddAlerts("", s.alertEng)
	roots := s.tracer.Spans()
	rep.AddSpans(roots)
	rep.Analyze(roots, 0)
	var buf bytes.Buffer
	err := rep.WriteJSON(&buf)
	s.mu.Unlock()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(buf.Bytes()); err != nil {
		log.Printf("trenvd: write report: %v", err)
	}
}

// alerts serves the alert-engine snapshot: per-rule state and spec,
// captured incidents with their trace links, and the virtual-time
// transition timeline. Deterministic for a given seed and rule set.
func (s *server) alerts(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	var buf bytes.Buffer
	err := s.alertEng.WriteJSON(&buf)
	s.mu.Unlock()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(buf.Bytes()); err != nil {
		log.Printf("trenvd: write alerts: %v", err)
	}
}

// selfstats reports the engine's wall-clock performance counters:
// uptime, events executed and their rate over wall time, invocation
// totals, heap/GC readings, and build identity. Everything here is
// wall-clock-side — the virtual clock, event order, and every
// deterministic export are unaffected by serving it.
func (s *server) selfstats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	events := s.platform.Engine().Events()
	invocations := s.platform.InvocationsStarted()
	virtual := s.now
	spans := s.tracer.Len()
	spansDropped := s.tracer.Dropped()
	s.mu.Unlock()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	uptime := time.Since(s.started)
	writeJSON(w, http.StatusOK, map[string]any{
		"go_version":     runtime.Version(),
		"version":        trenv.Version(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"goroutines":     runtime.NumGoroutine(),
		"uptime_seconds": uptime.Seconds(),
		"pprof_enabled":  s.pprof,
		"engine": map[string]any{
			"events":              events,
			"events_per_wall_sec": trenv.WallRate(float64(events), uptime),
			"virtual_time":        virtual.String(),
		},
		"invocations":     invocations,
		"spans_retained":  spans,
		"spans_dropped":   spansDropped,
		"heap_alloc":      ms.HeapAlloc,
		"total_alloc":     ms.TotalAlloc,
		"mallocs":         ms.Mallocs,
		"num_gc":          ms.NumGC,
		"gc_pause_ns_sum": ms.PauseTotalNs,
	})
}

// healthz reports node, breaker, and pool status. "ok" degrades to
// "degraded" when the breaker is not closed and to "crashed" after a
// chaos-injected node crash.
func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	type poolStatus struct {
		Kind      string `json:"kind"`
		UsedBytes int64  `json:"used_bytes"`
		Available bool   `json:"available"`
		Error     string `json:"error,omitempty"`
	}
	var pools []poolStatus
	for _, p := range s.platform.Pools() {
		ps := poolStatus{Kind: p.Kind().String(), UsedBytes: p.Tracker().Used(), Available: true}
		if err := p.Unavailable(); err != nil {
			ps.Available = false
			ps.Error = err.Error()
		}
		pools = append(pools, ps)
	}
	status := "ok"
	switch {
	case s.platform.Crashed():
		status = "crashed"
	case !s.breaker.Allow():
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         status,
		"node":           s.platform.NodeName(),
		"virtual_time":   s.now.String(),
		"active":         s.platform.Active(),
		"warm_instances": s.platform.WarmCount(),
		"breaker": map[string]any{
			"state": s.breaker.State().String(),
			"opens": s.breaker.Opens(),
		},
		"pools":         pools,
		"chaos_armed":   s.chaos != nil,
		"alerts_firing": s.alertEng.Firing(),
	})
}

// armChaos compiles and arms a fault schedule against the platform's
// virtual clock. Accepts either a compact spec string or a structured
// scenario; one schedule per server lifetime (re-arming returns 409).
func (s *server) armChaos(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Spec     string               `json:"spec"`
		Seed     int64                `json:"seed"`
		Scenario *trenv.FaultScenario `json:"scenario"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	var sc trenv.FaultScenario
	switch {
	case req.Spec != "" && req.Scenario != nil:
		httpError(w, http.StatusBadRequest, "give either spec or scenario, not both")
		return
	case req.Spec != "":
		var err error
		sc, err = trenv.ParseChaosSpec(req.Spec)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad spec: %v", err)
			return
		}
	case req.Scenario != nil:
		sc = *req.Scenario
	}
	if sc.Empty() {
		httpError(w, http.StatusBadRequest, "empty fault scenario")
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = s.seed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.chaos != nil {
		httpError(w, http.StatusConflict, "a fault schedule is already armed")
		return
	}
	inj := trenv.NewFaultInjector(s.platform.Engine(), seed, sc)
	inj.SetTracer(s.tracer)
	s.platform.AttachFaults(inj)
	inj.OnNodeCrash(func(name string) {
		if name == s.platform.NodeName() {
			s.platform.Crash()
		}
	})
	inj.Arm()
	inj.RegisterMetrics(s.registry, s.labels)
	s.chaos = inj
	writeJSON(w, http.StatusCreated, inj.Status())
}

// chaosStatus reports the armed schedule and injected-fault counts.
func (s *server) chaosStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.chaos == nil {
		writeJSON(w, http.StatusOK, trenv.ChaosStatus{})
		return
	}
	writeJSON(w, http.StatusOK, s.chaos.Status())
}

func (s *server) listExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, trenv.ExperimentIDs())
}

func (s *server) runExperiment(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID    string  `json:"id"`
		Seed  int64   `json:"seed"`
		Scale float64 `json:"scale"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	if req.Scale <= 0 {
		req.Scale = 0.2
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	res, ok := trenv.RunExperiment(req.ID, trenv.ExperimentOptions{Seed: req.Seed, Scale: req.Scale, Hedge: s.hedge})
	if !ok {
		httpError(w, http.StatusNotFound, "unknown experiment %q", req.ID)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": res.ID, "title": res.Title, "lines": res.Lines,
	})
}
