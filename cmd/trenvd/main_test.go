package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	trenv "repro"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer(trenv.TrEnvCXL, 1).mux())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, out
}

func TestDeployAndInvokeFlow(t *testing.T) {
	ts := testServer(t)

	resp, _ := postJSON(t, ts.URL+"/functions", map[string]string{"name": "JS"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("deploy status = %d", resp.StatusCode)
	}
	// Duplicate deploy conflicts.
	resp, _ = postJSON(t, ts.URL+"/functions", map[string]string{"name": "JS"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate deploy status = %d", resp.StatusCode)
	}
	// Unknown function 404s.
	resp, _ = postJSON(t, ts.URL+"/functions", map[string]string{"name": "nope"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown deploy status = %d", resp.StatusCode)
	}

	resp, out := postJSON(t, ts.URL+"/invoke", map[string]any{"function": "JS", "count": 3, "spacing_ms": 100})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke status = %d", resp.StatusCode)
	}
	if out["completed"].(float64) != 3 {
		t.Fatalf("completed = %v", out["completed"])
	}
	if out["e2e_p99_ms"].(float64) <= 0 {
		t.Fatal("no latency reported")
	}

	// Undeployed function rejected.
	resp, _ = postJSON(t, ts.URL+"/invoke", map[string]any{"function": "CR"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("undeployed invoke status = %d", resp.StatusCode)
	}

	// Stats reflect the batch.
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	metrics := stats["metrics"].(map[string]any)
	if metrics["invocations"].(float64) != 3 {
		t.Fatalf("stats invocations = %v", metrics["invocations"])
	}
	if metrics["errors"].(float64) != 0 {
		t.Fatalf("stats errors = %v", metrics["errors"])
	}
	perFn := metrics["per_function"].(map[string]any)
	if _, ok := perFn["JS"]; !ok {
		t.Fatal("per-function stats missing JS")
	}
}

func TestFunctionsListing(t *testing.T) {
	ts := testServer(t)
	postJSON(t, ts.URL+"/functions", map[string]string{"name": "DH"})
	resp, err := http.Get(ts.URL + "/functions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fns []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&fns); err != nil {
		t.Fatal(err)
	}
	if len(fns) != 10 {
		t.Fatalf("functions = %d", len(fns))
	}
	deployed := 0
	for _, fn := range fns {
		if fn["deployed"].(bool) {
			deployed++
		}
	}
	if deployed != 1 {
		t.Fatalf("deployed = %d", deployed)
	}
}

func TestExperimentEndpoints(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ids []string
	if err := json.NewDecoder(resp.Body).Decode(&ids); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 22 {
		t.Fatalf("experiments = %d", len(ids))
	}

	rresp, out := postJSON(t, ts.URL+"/experiments/run", map[string]any{"id": "table3", "scale": 0.1})
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("run status = %d", rresp.StatusCode)
	}
	if out["id"] != "table3" || len(out["lines"].([]any)) == 0 {
		t.Fatalf("run output = %v", out)
	}
	rresp, _ = postJSON(t, ts.URL+"/experiments/run", map[string]any{"id": "nope"})
	if rresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown experiment status = %d", rresp.StatusCode)
	}
}

func TestBadJSONRejected(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Post(ts.URL+"/invoke", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json status = %d", resp.StatusCode)
	}
}

// TestHedgeFlagArmsDeadlineOnlyPolicy: -hedge-policy 'off,deadline=1us'
// launches no clones but reaches the cluster, where every attempt ends
// deadline-exceeded; a bare "off" arms nothing.
func TestHedgeFlagArmsDeadlineOnlyPolicy(t *testing.T) {
	if hp, err := hedgeFlag("off"); err != nil || hp != nil {
		t.Fatalf("bare off = %+v, %v; want nothing armed", hp, err)
	}
	hp, err := hedgeFlag("off,deadline=1us")
	if err != nil || hp == nil {
		t.Fatalf("off,deadline=1us = %+v, %v; want an armed policy", hp, err)
	}
	c, err := trenv.NewCluster(2, trenv.DefaultContainerConfig(trenv.TrEnvCXL))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range trenv.Functions() {
		if err := c.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	c.SetHedgePolicy(*hp)
	var settled []trenv.InvocationResult
	c.SetSettleHook(func(_ string, _ time.Duration, r trenv.InvocationResult) { settled = append(settled, r) })
	c.Invoke(0, "JS")
	c.Invoke(time.Second, "JS")
	c.Engine().Run()
	if len(settled) != 2 {
		t.Fatalf("settled %d invocations, want 2", len(settled))
	}
	for _, r := range settled {
		if r.Outcome != trenv.OutcomeDeadlineExceeded {
			t.Fatalf("outcome %q, want %q", r.Outcome, trenv.OutcomeDeadlineExceeded)
		}
	}
}

// TestChaosRejectsInvalidScenario: a JSON scenario gets every check a
// spec does. An inverted outage window, a flap count just over the cap
// and a misspelt pool name are refused with 400 before anything is
// attached, so the server stays unarmed and a later valid schedule
// still arms.
func TestChaosRejectsInvalidScenario(t *testing.T) {
	ts := testServer(t)
	for name, body := range map[string]map[string]any{
		"inverted window": {"scenario": map[string]any{
			"pool_outages": []map[string]any{{"pool": "cxl", "from": int64(2 * time.Second), "to": int64(time.Second)}},
		}},
		"flap count over cap": {"scenario": map[string]any{
			"link_flaps": []map[string]any{{"pool": "cxl", "period": int64(time.Second), "down": int64(time.Millisecond), "count": 10001}},
		}},
		"flap spec over cap": {"spec": "flap:cxl:1s/1ms:x10001"},
		"misspelt pool": {"scenario": map[string]any{
			"pool_outages": []map[string]any{{"pool": "bogus", "from": int64(time.Second), "to": int64(2 * time.Second)}},
		}},
		"misspelt pool spec": {"spec": "outage:bogus:1s-2s,crash::5s"},
	} {
		resp, out := postJSON(t, ts.URL+"/chaos", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%v), want 400", name, resp.StatusCode, out)
		}
	}
	resp, err := http.Get(ts.URL + "/chaos")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st trenv.ChaosStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Armed {
		t.Fatalf("GET /chaos = %+v after rejected scenarios, want unarmed", st)
	}
	if resp, out := postJSON(t, ts.URL+"/chaos", map[string]any{"spec": "outage:cxl:1s-2s"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("valid spec after rejections: status %d (%v), want 201", resp.StatusCode, out)
	}
}
