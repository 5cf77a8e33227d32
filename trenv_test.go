package trenv_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	trenv "repro"
)

func TestPublicAPIQuickPath(t *testing.T) {
	pl := trenv.NewContainerPlatform(trenv.DefaultContainerConfig(trenv.TrEnvCXL))
	for _, fn := range trenv.Functions() {
		if err := pl.Register(fn); err != nil {
			t.Fatal(err)
		}
	}
	pl.Invoke(0, "JS")
	pl.Invoke(time.Second, "JS")
	pl.Engine().Run()
	m := pl.Metrics()
	if m.Invocations() != 2 || m.Errors.Value() != 0 {
		t.Fatalf("invocations=%d errors=%d", m.Invocations(), m.Errors.Value())
	}
	if m.WarmHits.Value() != 1 {
		t.Fatalf("warm hits = %d", m.WarmHits.Value())
	}
}

func TestPublicAPIAgents(t *testing.T) {
	pl, err := trenv.NewAgentPlatform(trenv.DefaultAgentConfig(trenv.TrEnvVMShared))
	if err != nil {
		t.Fatal(err)
	}
	a, err := trenv.AgentByName("blackjack")
	if err != nil {
		t.Fatal(err)
	}
	pl.Launch(0, a)
	pl.Run()
	if pl.Metrics("blackjack").E2E.N() != 1 {
		t.Fatal("agent did not run")
	}
	pr := trenv.DefaultPricing()
	if trenv.LLMCost(a, pr) <= 0 || trenv.ServerlessCost(a, pr) <= 0 {
		t.Fatal("cost model broken")
	}
}

func TestPublicAPICluster(t *testing.T) {
	c, err := trenv.NewCluster(2, trenv.DefaultContainerConfig(trenv.TrEnvCXL))
	if err != nil {
		t.Fatal(err)
	}
	js, _ := trenv.FunctionByName("JS")
	if err := c.Register(js); err != nil {
		t.Fatal(err)
	}
	c.Invoke(0, "JS")
	c.Engine().Run()
	if c.Invocations() != 1 {
		t.Fatalf("invocations = %d", c.Invocations())
	}
}

func TestPublicAPITemplates(t *testing.T) {
	reg := trenv.NewTemplateRegistry()
	tpl := reg.Create("demo")
	pool := trenv.NewCXLPool(0)
	if err := tpl.AddMap("heap", 0x10000, 64<<12, trenv.ProtRead|trenv.ProtWrite, trenv.MapAnon); err != nil {
		t.Fatal(err)
	}
	if err := tpl.SetupPT(0x10000, 64<<12, 0, pool); err != nil {
		t.Fatal(err)
	}
	if tpl.MetadataBytes() == 0 {
		t.Fatal("no metadata")
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	ids := trenv.ExperimentIDs()
	if len(ids) != 22 {
		t.Fatalf("experiments = %d, want 22", len(ids))
	}
	r, ok := trenv.RunExperiment("table3", trenv.ExperimentOptions{Seed: 1, Scale: 0.1})
	if !ok || len(r.Lines) == 0 {
		t.Fatal("table3 failed")
	}
	if _, ok := trenv.RunExperiment("nope", trenv.ExperimentOptions{}); ok {
		t.Fatal("phantom experiment")
	}
}

func TestPublicAPIMultiRack(t *testing.T) {
	m, err := trenv.NewMultiRack(2, 2, trenv.DefaultContainerConfig(trenv.TrEnvCXL))
	if err != nil {
		t.Fatal(err)
	}
	js, _ := trenv.FunctionByName("JS")
	if err := m.RegisterHome(js, 0); err != nil {
		t.Fatal(err)
	}
	m.Invoke(0, "JS")
	m.Engine().Run()
	if m.Invocations() != 1 {
		t.Fatalf("invocations = %d", m.Invocations())
	}
}

func TestPublicAPITierManager(t *testing.T) {
	tm, err := trenv.NewTierManager(trenv.NewCXLPool(0), trenv.NewRDMAPool(0), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if err := tm.Place("lib", 100); err != nil {
		t.Fatal(err)
	}
	tm.RecordAccess("lib", 10)
	if _, err := tm.Rebalance(1 << 30); err != nil {
		t.Fatal(err)
	}
	if tier, _ := tm.TierOf("lib"); tier.String() != "cxl" {
		t.Fatalf("tier = %v", tier)
	}
}

func TestPublicAPISerialization(t *testing.T) {
	a, _ := trenv.AgentByName("blackjack")
	var buf bytes.Buffer
	if err := trenv.WriteAgentTrace(&buf, a); err != nil {
		t.Fatal(err)
	}
	got, err := trenv.ReadAgentTrace(&buf)
	if err != nil || got.Name != "blackjack" {
		t.Fatalf("agent trace round trip: %v %v", got.Name, err)
	}
	js, _ := trenv.FunctionByName("JS")
	snap := js.Snapshot()
	buf.Reset()
	if err := trenv.WriteSnapshotImage(&buf, snap); err != nil {
		t.Fatal(err)
	}
	back, err := trenv.ReadSnapshotImage(&buf)
	if err != nil || back.Function != "JS" {
		t.Fatalf("snapshot round trip: %v %v", back, err)
	}
}

func TestPublicAPIAzureCSV(t *testing.T) {
	csvText := "HashOwner,HashApp,HashFunction,Trigger,1,2\no,a,f1,http,3,4\n"
	tr, err := trenv.ParseAzureCSV(strings.NewReader(csvText), rand.New(rand.NewSource(1)),
		trenv.AzureCSVOptions{Functions: []string{"JS"}})
	if err != nil || tr.Len() != 7 {
		t.Fatalf("csv parse: %d, %v", tr.Len(), err)
	}
}
