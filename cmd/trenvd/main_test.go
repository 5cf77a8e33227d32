package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

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
