package cluster

import (
	"testing"
	"time"

	"repro/internal/faas"
	"repro/internal/workload"
)

func newMultiRack(t *testing.T, racks, nodes int) *Cluster {
	t.Helper()
	m, err := NewMultiRack(racks, nodes, faas.DefaultConfig(faas.PolicyTrEnvCXL))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMultiRackValidation(t *testing.T) {
	if _, err := NewMultiRack(0, 1, faas.DefaultConfig(faas.PolicyTrEnvCXL)); err == nil {
		t.Fatal("zero racks accepted")
	}
	if _, err := NewMultiRack(2, 2, faas.DefaultConfig(faas.PolicyCRIU)); err == nil {
		t.Fatal("non-TrEnv policy accepted")
	}
}

func TestRegisterHomesOneCXLCopy(t *testing.T) {
	m := newMultiRack(t, 3, 2)
	js, _ := workload.ProfileByName("JS")
	if err := m.RegisterHome(js, 1); err != nil {
		t.Fatal(err)
	}
	// One CXL copy cluster-wide, on the home rack only.
	if m.racks[1].cxl.Tracker().Used() == 0 {
		t.Fatal("home rack holds no image")
	}
	if m.racks[0].cxl.Tracker().Used() != 0 || m.racks[2].cxl.Tracker().Used() != 0 {
		t.Fatal("non-home racks hold CXL copies")
	}
	if err := m.RegisterHome(js, 1); err == nil {
		t.Fatal("duplicate register accepted")
	}
	if err := m.RegisterHome(js, 9); err == nil {
		t.Fatal("bad home rack accepted")
	}
}

func TestHomeRackPreferredNoSpillWhenIdle(t *testing.T) {
	m := newMultiRack(t, 2, 2)
	js, _ := workload.ProfileByName("JS")
	m.RegisterHome(js, 0)
	for i := 0; i < 3; i++ {
		m.Invoke(time.Duration(i)*20*time.Second, "JS")
	}
	m.Engine().Run()
	if m.Invocations() != 3 {
		t.Fatalf("invocations = %d", m.Invocations())
	}
	if m.Spillovers() != 0 {
		t.Fatalf("spilled %d invocations with an idle home rack", m.Spillovers())
	}
	// All work landed on rack 0.
	for _, node := range m.racks[1].nodes {
		if node.Metrics().Invocations() != 0 {
			t.Fatal("non-home rack served traffic without saturation")
		}
	}
}

func TestSaturatedHomeRackSpillsOverRDMA(t *testing.T) {
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	cfg.Cores = 2 // tiny nodes: easy to saturate
	m, err := NewMultiRack(2, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vp, _ := workload.ProfileByName("VP") // long-running
	m.RegisterHome(vp, 0)
	for i := 0; i < 8; i++ {
		m.Invoke(0, "VP")
	}
	m.Engine().Run()
	if m.Invocations() != 8 {
		t.Fatalf("invocations = %d", m.Invocations())
	}
	if m.Spillovers() == 0 {
		t.Fatal("no spillover despite a saturated home rack")
	}
	spillNode := m.racks[1].nodes[0]
	if spillNode.Metrics().Invocations() == 0 {
		t.Fatal("spill rack served nothing")
	}
	// Spilled instances fetched over the fabric: their executions are
	// slower than home-rack (CXL) ones.
	homeExec := m.racks[0].nodes[0].Metrics().Fn("VP").Exec.Min()
	spillExec := spillNode.Metrics().Fn("VP").Exec.Min()
	if spillExec <= homeExec {
		t.Fatalf("spill exec %.1fms not slower than home %.1fms (RDMA fetches missing)", spillExec, homeExec)
	}
	if m.fabric.Fetches() == 0 {
		t.Fatal("fabric saw no fetches")
	}
}

func TestMultiRackRunTrace(t *testing.T) {
	m := newMultiRack(t, 2, 2)
	var names []string
	for i, p := range workload.Table4() {
		if err := m.RegisterHome(p, i%2); err != nil {
			t.Fatal(err)
		}
		names = append(names, p.Name)
	}
	tr := workload.Trace{}
	for i, fn := range names {
		tr = append(tr, workload.Invocation{At: time.Duration(i) * time.Second, Function: fn})
	}
	m.RunTrace(tr)
	if m.Invocations() != len(tr) {
		t.Fatalf("invocations = %d", m.Invocations())
	}
	if m.CXLBytes() == 0 {
		t.Fatal("no CXL usage recorded")
	}
}
