package cluster

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

func clusterTrace(seed int64) workload.Trace {
	rng := rand.New(rand.NewSource(seed))
	return workload.W1Bursty(rng, workload.W1Config{
		Functions: []string{"JS", "DH", "CR"},
		Duration:  2 * time.Minute,
		BurstGap:  30 * time.Second,
		BurstSize: 4,
		BurstSpan: time.Second,
	})
}

// sumWhere sums gathered samples of family name whose labels contain key.
func sumWhere(samples []obs.Sample, name, key string) (float64, int) {
	var total float64
	n := 0
	for _, s := range samples {
		if s.Name == name && s.Labels[key] != "" {
			total += s.Value
			n++
		}
	}
	return total, n
}

// one returns the single sample of family name with no node/rack label.
func one(t *testing.T, samples []obs.Sample, name string) float64 {
	t.Helper()
	found := false
	var v float64
	for _, s := range samples {
		if s.Name != name || s.Labels["node"] != "" || s.Labels["rack"] != "" {
			continue
		}
		if found {
			t.Fatalf("family %s has several aggregate series", name)
		}
		found, v = true, s.Value
	}
	if !found {
		t.Fatalf("family %s missing", name)
	}
	return v
}

func TestClusterAggregateEqualsNodeSum(t *testing.T) {
	c := newCluster(t, 3)
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	c.RunTrace(clusterTrace(7))

	samples := reg.Gather()
	if c.Invocations() == 0 {
		t.Fatal("trace ran nothing")
	}
	pairs := []struct{ agg, per string }{
		{"trenv_cluster_invocations_total", "trenv_invocations_total"},
		{"trenv_cluster_warm_hits_total", "trenv_warm_hits_total"},
		{"trenv_cluster_cold_starts_total", "trenv_cold_starts_total"},
		{"trenv_cluster_errors_total", "trenv_errors_total"},
		{"trenv_cluster_minor_faults_total", "trenv_page_minor_faults_total"},
		{"trenv_cluster_major_faults_total", "trenv_page_major_faults_total"},
		{"trenv_cluster_cow_copies_total", "trenv_page_cow_copies_total"},
		{"trenv_cluster_mem_peak_bytes", "trenv_node_mem_peak_bytes"},
	}
	for _, p := range pairs {
		agg := one(t, samples, p.agg)
		sum, n := sumWhere(samples, p.per, "node")
		if n != len(c.Nodes()) {
			t.Fatalf("%s: %d node series, want %d", p.per, n, len(c.Nodes()))
		}
		if agg != sum {
			t.Fatalf("%s = %v, sum of %s over nodes = %v", p.agg, agg, p.per, sum)
		}
	}
	if got := one(t, samples, "trenv_cluster_invocations_total"); int(got) != c.Invocations() {
		t.Fatalf("aggregate invocations %v != %d", got, c.Invocations())
	}
	if alive := one(t, samples, "trenv_cluster_nodes_alive"); alive != 3 {
		t.Fatalf("nodes alive = %v", alive)
	}
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if alive := one(t, reg.Gather(), "trenv_cluster_nodes_alive"); alive != 2 {
		t.Fatalf("nodes alive after kill = %v", alive)
	}
}

func TestClusterRecorderFleetSeriesEqualNodeSum(t *testing.T) {
	c := newCluster(t, 3)
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	rec := obs.NewRecorder(reg, 0)
	c.AttachRecorder(rec, time.Second)
	c.RunTrace(clusterTrace(7))

	if rec.Samples() == 0 {
		t.Fatal("recorder never sampled")
	}
	pairs := []struct{ agg, per string }{
		{"trenv_cluster_invocations_total", "trenv_invocations_total"},
		{"trenv_cluster_warm_hits_total", "trenv_warm_hits_total"},
		{"trenv_cluster_minor_faults_total", "trenv_page_minor_faults_total"},
		{"trenv_cluster_mem_used_bytes", "trenv_node_mem_used_bytes"},
	}
	for _, p := range pairs {
		agg := rec.Lookup(p.agg, nil)
		if agg == nil {
			t.Fatalf("no %s series", p.agg)
		}
		var nodeSeries []*obs.TimeSeries
		for i := range c.Nodes() {
			ts := rec.Lookup(p.per, map[string]string{"node": []string{"n0", "n1", "n2"}[i]})
			if ts == nil {
				t.Fatalf("no %s series for node n%d", p.per, i)
			}
			nodeSeries = append(nodeSeries, ts)
		}
		aggPts := agg.Points()
		for pi, pt := range aggPts {
			var sum float64
			for _, ts := range nodeSeries {
				pts := ts.Points()
				if len(pts) != len(aggPts) {
					t.Fatalf("%s: node series has %d points, aggregate %d", p.per, len(pts), len(aggPts))
				}
				if pts[pi].T != pt.T {
					t.Fatalf("%s: sample instants diverge (%v vs %v)", p.per, pts[pi].T, pt.T)
				}
				sum += pts[pi].Value
			}
			if sum != pt.Value {
				t.Fatalf("%s at t=%v: aggregate %v != node sum %v", p.agg, pt.T, pt.Value, sum)
			}
		}
	}
	// The aggregate's final value matches the run's ground truth.
	if got := rec.Lookup("trenv_cluster_invocations_total", nil).Last().Value; int(got) != c.Invocations() {
		t.Fatalf("final sampled invocations %v != %d", got, c.Invocations())
	}
}

func TestClusterRecorderDeterministic(t *testing.T) {
	run := func() string {
		c := newCluster(t, 2)
		reg := obs.NewRegistry()
		c.RegisterMetrics(reg)
		rec := obs.NewRecorder(reg, 0)
		c.AttachRecorder(rec, time.Second)
		c.RunTrace(clusterTrace(11))
		var buf bytes.Buffer
		if err := rec.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if run() != run() {
		t.Fatal("same-seed cluster time-series exports differ")
	}
}

func TestMultiRackMetricsLabelsAndAggregates(t *testing.T) {
	m := newMultiRack(t, 2, 2)
	for i, p := range workload.Table4() {
		if err := m.RegisterHome(p, i%2); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	m.RegisterMetrics(reg)
	tr := workload.Trace{}
	for i, p := range workload.Table4() {
		tr = append(tr, workload.Invocation{At: time.Duration(i) * time.Second, Function: p.Name})
	}
	m.RunTrace(tr)

	samples := reg.Gather()
	agg := one(t, samples, "trenv_cluster_invocations_total")
	if int(agg) != m.Invocations() {
		t.Fatalf("aggregate %v != invocations %d", agg, m.Invocations())
	}
	nodeSum, n := sumWhere(samples, "trenv_invocations_total", "node")
	if n != 4 {
		t.Fatalf("node series = %d, want 4", n)
	}
	if nodeSum != agg {
		t.Fatalf("node sum %v != aggregate %v", nodeSum, agg)
	}
	var rackSum float64
	rackSeries := 0
	for _, s := range samples {
		if s.Name == "trenv_rack_invocations_total" {
			rackSum += s.Value
			rackSeries++
		}
	}
	if rackSeries != 2 {
		t.Fatalf("rack roll-up series = %d, want 2", rackSeries)
	}
	if rackSum != agg {
		t.Fatalf("rack sum %v != aggregate %v", rackSum, agg)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`trenv_invocations_total{node="r0n0",rack="r0"}`,
		`trenv_invocations_total{node="r1n1",rack="r1"}`,
		`trenv_pool_used_bytes{pool="cxl",rack="r0",scope="rack"}`,
		`trenv_pool_used_bytes{pool="rdma",scope="fabric"}`,
		`trenv_rack_invocations_total{rack="r0"}`,
		"trenv_cluster_spillovers_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet export missing %q", want)
		}
	}
}
