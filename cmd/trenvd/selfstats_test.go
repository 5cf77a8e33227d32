package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	trenv "repro"
)

func TestSelfStatsEndpoint(t *testing.T) {
	ts := testServer(t)

	postJSON(t, ts.URL+"/functions", map[string]string{"name": "JS"})
	postJSON(t, ts.URL+"/invoke", map[string]any{"function": "JS", "count": 3, "spacing_ms": 50})

	code, body := getBody(t, ts.URL+"/selfstats")
	if code != http.StatusOK {
		t.Fatalf("selfstats status = %d", code)
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("decode selfstats: %v", err)
	}
	eng, ok := out["engine"].(map[string]any)
	if !ok {
		t.Fatalf("no engine block in %v", out)
	}
	if eng["events"].(float64) <= 0 {
		t.Fatalf("engine executed no events: %v", eng)
	}
	if out["invocations"].(float64) != 3 {
		t.Fatalf("invocations = %v, want 3", out["invocations"])
	}
	if out["uptime_seconds"].(float64) <= 0 {
		t.Fatalf("uptime not measured: %v", out)
	}
	if out["heap_alloc"].(float64) <= 0 || out["mallocs"].(float64) <= 0 {
		t.Fatalf("memstats not captured: %v", out)
	}
	if out["go_version"].(string) == "" {
		t.Fatalf("go_version missing: %v", out)
	}
	if out["pprof_enabled"].(bool) {
		t.Fatalf("pprof reported enabled on a default server")
	}

	// Wrong method gets the shared JSON 405.
	resp, err := http.Post(ts.URL+"/selfstats", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /selfstats status = %d, want 405", resp.StatusCode)
	}
}

func TestBuildInfoGaugeOnMetrics(t *testing.T) {
	ts := httptest.NewServer(newServerWith(serverOptions{
		policy: trenv.TrEnvCXL, seed: 1, node: "n7",
	}).mux())
	defer ts.Close()

	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status = %d", code)
	}
	text := body
	if !strings.Contains(text, "trenv_build_info{") {
		t.Fatalf("trenv_build_info missing from /metrics:\n%s", text)
	}
	line := ""
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(l, "trenv_build_info{") {
			line = l
			break
		}
	}
	for _, want := range []string{`go_version="go`, `version="`, `node="n7"`} {
		if !strings.Contains(line, want) {
			t.Fatalf("build info line missing %s: %s", want, line)
		}
	}
	if !strings.HasSuffix(line, " 1") {
		t.Fatalf("build info gauge should be constant 1: %s", line)
	}
}

func TestPprofGatedByFlag(t *testing.T) {
	off := httptest.NewServer(newServerWith(serverOptions{policy: trenv.TrEnvCXL, seed: 1}).mux())
	defer off.Close()
	code, _ := getBody(t, off.URL+"/debug/pprof/")
	if code != http.StatusNotFound {
		t.Fatalf("pprof served without -pprof: status %d", code)
	}

	on := httptest.NewServer(newServerWith(serverOptions{policy: trenv.TrEnvCXL, seed: 1, pprof: true}).mux())
	defer on.Close()
	code, body := getBody(t, on.URL+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("pprof index status = %d with -pprof", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index unexpected body:\n%.200s", body)
	}
	code, body = getBody(t, on.URL+"/debug/pprof/heap?debug=1")
	if code != http.StatusOK || !strings.Contains(body, "heap profile") {
		t.Fatalf("heap profile status = %d body:\n%.120s", code, body)
	}
}

// TestDeterministicExportsIsolatedFromSelfObservability is the
// determinism-isolation contract at the daemon level: two same-seed
// servers driven with identical batches must serve byte-identical
// /metrics, /trace, and /analyze even when one of them additionally
// serves pprof profiles and /selfstats between batches.
func TestDeterministicExportsIsolatedFromSelfObservability(t *testing.T) {
	drive := func(selfObserve bool) (metrics, trace, analyze string) {
		srv := httptest.NewServer(newServerWith(serverOptions{
			policy: trenv.TrEnvCXL, seed: 42, pprof: selfObserve,
		}).mux())
		defer srv.Close()
		postJSON(t, srv.URL+"/functions", map[string]string{"name": "JS"})
		postJSON(t, srv.URL+"/functions", map[string]string{"name": "PF"})
		postJSON(t, srv.URL+"/invoke", map[string]any{"function": "JS", "count": 4, "spacing_ms": 120})
		if selfObserve {
			// Hit the wall-clock-side surfaces mid-run: they must not
			// leak into anything deterministic.
			if code, _ := getBody(t, srv.URL+"/selfstats"); code != http.StatusOK {
				t.Fatalf("selfstats status = %d", code)
			}
			if code, _ := getBody(t, srv.URL+"/debug/pprof/heap?debug=1"); code != http.StatusOK {
				t.Fatalf("heap profile status = %d", code)
			}
		}
		postJSON(t, srv.URL+"/invoke", map[string]any{"function": "PF", "count": 3, "spacing_ms": 80})

		for _, probe := range []struct {
			path string
			dst  *string
		}{
			{"/metrics", &metrics},
			{"/trace?format=jsonl", &trace},
			{"/analyze", &analyze},
		} {
			code, body := getBody(t, srv.URL+probe.path)
			if code != http.StatusOK {
				t.Fatalf("%s status = %d", probe.path, code)
			}
			*probe.dst = body
		}
		return metrics, trace, analyze
	}

	m1, t1, a1 := drive(false)
	m2, t2, a2 := drive(true)
	if len(m1) == 0 || len(t1) == 0 || len(a1) == 0 {
		t.Fatal("empty export")
	}
	if m1 != m2 {
		t.Errorf("/metrics diverged with self-observability on (%d vs %d bytes)", len(m1), len(m2))
	}
	if t1 != t2 {
		t.Errorf("/trace diverged with self-observability on (%d vs %d bytes)", len(t1), len(t2))
	}
	if a1 != a2 {
		t.Errorf("/analyze diverged with self-observability on (%d vs %d bytes)", len(a1), len(a2))
	}
}

func TestRateGuards(t *testing.T) {
	cases := []struct {
		n       float64
		elapsed time.Duration
		want    float64
	}{
		{10, 0, 0},
		{10, -time.Second, 0},
		{10, 2 * time.Second, 5},
		{0, time.Second, 0},
	}
	for _, c := range cases {
		if got := wallRate(c.n, c.elapsed); got != c.want {
			t.Errorf("wallRate(%v, %v) = %v, want %v", c.n, c.elapsed, got, c.want)
		}
	}
}
