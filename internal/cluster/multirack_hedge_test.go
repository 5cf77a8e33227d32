package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/workload"
)

// multiRackHedge builds a 2x2 fleet with Table 4 homed on alternating
// racks and a settle hook rendering deterministic lines.
func multiRackHedge(t *testing.T, seed int64) (*Cluster, *[]string) {
	t.Helper()
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	cfg.Seed = seed
	cfg.HotFraction = 0.4 // keep lazy rdma fetches (and their faults) on the path
	m, err := NewMultiRack(2, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range workload.Table4() {
		if err := m.RegisterHome(p, i%2); err != nil {
			t.Fatal(err)
		}
	}
	lines := new([]string)
	m.SetSettleHook(func(fn string, latency time.Duration, r faas.InvocationResult) {
		*lines = append(*lines, fmt.Sprintf("%s %s %s", fn, latency, r.Outcome))
	})
	return m, lines
}

// TestMultiRackHedgeLoserCancelled: fleet-wide hedging has the same
// race semantics as the single rack — the primary wins on an idle
// fleet, the hedge cancels, and the extended invariant holds.
func TestMultiRackHedgeLoserCancelled(t *testing.T) {
	m, lines := multiRackHedge(t, 1)
	m.SetHedgePolicy(HedgePolicy{Mode: HedgeDelay, Delay: time.Millisecond})
	m.Invoke(0, "JS")
	m.Engine().Run()

	if m.Hedged() != 1 || m.HedgeWins() != 0 || m.Cancelled() != 1 {
		t.Fatalf("hedged=%d wins=%d cancelled=%d, want 1/0/1", m.Hedged(), m.HedgeWins(), m.Cancelled())
	}
	if len(*lines) != 1 || m.Wedged() != 0 {
		t.Fatalf("settled=%d wedged=%d, want 1/0", len(*lines), m.Wedged())
	}
}

// TestMultiRackRedispatchCap: the crash re-dispatch budget applies
// fleet-wide. With budget zero a crashed home node's invocation
// terminates as redispatch-exhausted; with the default budget the same
// crash re-dispatches and settles successfully.
func TestMultiRackRedispatchCap(t *testing.T) {
	kill := func(m *Cluster) {
		m.Engine().At(5*time.Millisecond, "kill", "r1n0", func(p *sim.Proc) {
			// JS is homed on rack 1 (Table 4 index 1, alternating homes) and
			// the idle-fleet tie-break places the primary on the home rack's
			// first node, r1n0 (flat index 2).
			if err := m.KillNode(2); err != nil {
				t.Errorf("mid-run kill: %v", err)
			}
		})
	}

	m, lines := multiRackHedge(t, 1)
	m.SetMaxRedispatch(0)
	m.Invoke(0, "JS")
	kill(m)
	m.Engine().Run()
	if m.RedispatchExhausted() != 1 || m.Redispatched() != 0 {
		t.Fatalf("exhausted=%d redispatched=%d, want 1/0", m.RedispatchExhausted(), m.Redispatched())
	}
	if len(*lines) != 1 || m.Wedged() != 0 {
		t.Fatalf("settled=%d wedged=%d, want 1/0 (exhaustion still settles)", len(*lines), m.Wedged())
	}

	m2, lines2 := multiRackHedge(t, 1)
	m2.Invoke(0, "JS")
	kill(m2)
	m2.Engine().Run()
	if m2.Redispatched() != 1 || m2.RedispatchExhausted() != 0 {
		t.Fatalf("redispatched=%d exhausted=%d, want 1/0", m2.Redispatched(), m2.RedispatchExhausted())
	}
	if len(*lines2) != 1 || (*lines2)[0] == "" || m2.Wedged() != 0 {
		t.Fatalf("settled=%+v wedged=%d, want one settle, zero wedged", *lines2, m2.Wedged())
	}
}

// multiRackChaosRun drives the bursty trace through the 2x2 fleet with
// hedging armed under flaky-RDMA chaos plus a node crash.
func multiRackChaosRun(t *testing.T, seed int64) ([]string, *Cluster) {
	t.Helper()
	m, lines := multiRackHedge(t, seed)
	m.SetHedgePolicy(HedgePolicy{Mode: HedgeDelay, Delay: 5 * time.Millisecond})
	inj := fault.NewInjector(m.Engine(), seed, fault.Scenario{
		FlakyFetches: []fault.FlakyFetch{{Pool: "rdma", Prob: 0.2, Burst: 2}},
		NodeCrashes:  []fault.NodeCrash{{Node: "r1n1", At: 30 * time.Second}},
	})
	m.AttachChaos(inj)
	tr := workload.W1Bursty(rand.New(rand.NewSource(seed)), workload.W1Config{
		Functions: []string{"JS", "DH", "CR", "IR"},
		Duration:  time.Minute,
		BurstGap:  10 * time.Second,
		BurstSize: 6,
		BurstSpan: time.Second,
	})
	m.RunTrace(tr)
	return *lines, m
}

// TestMultiRackHedgingChaosParity: the MultiRack fleet upholds the same
// acceptance bar as the single rack — hedging composed with chaos and a
// crash keeps the extended invariant at zero, hedges actually launch,
// the attempt ledger balances, and two same-seed runs settle
// identically, line for line.
func TestMultiRackHedgingChaosParity(t *testing.T) {
	lines1, m := multiRackChaosRun(t, 7)
	if m.Wedged() != 0 {
		t.Fatalf("wedged = %d (dispatched=%d redispatched=%d hedged=%d results=%d cancelled=%d)",
			m.Wedged(), m.Dispatched(), m.Redispatched(), m.Hedged(), m.Results(), m.Cancelled())
	}
	if m.Hedged() == 0 {
		t.Fatal("no hedges launched; the policy was not exercised")
	}
	if got := m.Dispatched() + m.Redispatched() + m.Hedged(); got != m.Results()+m.Cancelled() {
		t.Fatalf("attempt ledger unbalanced: %d launched, %d terminated", got, m.Results()+m.Cancelled())
	}
	lines2, _ := multiRackChaosRun(t, 7)
	if len(lines1) != len(lines2) {
		t.Fatalf("same-seed runs settled %d vs %d invocations", len(lines1), len(lines2))
	}
	for i := range lines1 {
		if lines1[i] != lines2[i] {
			t.Fatalf("same-seed runs diverge at settle %d: %q vs %q", i, lines1[i], lines2[i])
		}
	}
}
