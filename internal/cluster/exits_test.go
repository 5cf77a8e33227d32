package cluster

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestFailureExitSpans pins what every non-success exit of an attempt
// leaves behind: the terminal outcome, the one platform counter it
// bumps, and the error span recorded under the attempt's trace — its
// name, error_type and cancel_reason attributes and its typed links.
func TestFailureExitSpans(t *testing.T) {
	for _, tc := range []struct {
		name    string
		fn      string
		arm     func(t *testing.T, c *Cluster)
		outcome faas.Outcome
		errType string
		reason  string
		counter string // the one failure counter the exit bumps
		// winnerLink expects one hedge-lost link to the settling attempt.
		winnerLink bool
	}{
		{
			name: "unknown-function", fn: "nope",
			arm:     func(*testing.T, *Cluster) {},
			outcome: faas.OutcomeError,
			counter: "Errors",
		},
		{
			name: "node-crash", fn: "JS",
			arm: func(t *testing.T, c *Cluster) {
				c.Engine().At(5*time.Millisecond, "kill", "n0", func(p *sim.Proc) {
					if err := c.KillNode(0); err != nil {
						t.Errorf("mid-run kill: %v", err)
					}
				})
			},
			outcome: faas.OutcomeCrashed, errType: "node-down",
			counter: "CrashAborts",
		},
		{
			name: "cancel-with-winner", fn: "JS",
			arm: func(_ *testing.T, c *Cluster) {
				c.SetHedgePolicy(HedgePolicy{Mode: HedgeDelay, Delay: time.Millisecond})
			},
			outcome: faas.OutcomeCancelled, errType: "cancelled", reason: "hedge-lost",
			counter:    "Cancelled",
			winnerLink: true,
		},
		{
			name: "deadline-overrun", fn: "JS",
			arm: func(_ *testing.T, c *Cluster) {
				c.SetHedgePolicy(HedgePolicy{Deadline: time.Millisecond})
			},
			outcome: faas.OutcomeDeadline, errType: "deadline-exceeded",
			counter: "DeadlineExceeded",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
			tracer := obs.NewTracer(0)
			cfg.Tracer = tracer
			c, err := New(2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range workload.Table4() {
				if err := c.Register(p); err != nil {
					t.Fatal(err)
				}
			}
			var failed []faas.InvocationResult
			var winner string
			c.SetResultHook(func(_ int, r faas.InvocationResult) {
				if r.Outcome == faas.OutcomeSuccess {
					winner = r.TraceID
				} else {
					failed = append(failed, r)
				}
			})
			tc.arm(t, c)
			c.Invoke(0, tc.fn)
			c.Engine().Run()

			if len(failed) != 1 {
				t.Fatalf("non-success results = %+v, want exactly one", failed)
			}
			r := failed[0]
			if r.Outcome != tc.outcome {
				t.Fatalf("outcome %q, want %q", r.Outcome, tc.outcome)
			}
			want := map[string]int64{"Errors": 0, "CrashAborts": 0, "Cancelled": 0, "DeadlineExceeded": 0}
			want[tc.counter] = 1
			if got := failureCounts(c); !reflect.DeepEqual(got, want) {
				t.Errorf("failure counters summed over nodes = %v, want %v", got, want)
			}

			sp := tracer.Find(r.TraceID)
			if sp == nil {
				t.Fatalf("no span recorded under the failed attempt's trace %s", r.TraceID)
			}
			if sp.Name != "invoke/"+tc.fn {
				t.Errorf("span name %q, want %q", sp.Name, "invoke/"+tc.fn)
			}
			if sp.Error == "" || sp.Error != r.Err.Error() {
				t.Errorf("span error %q, want the result's error %q", sp.Error, r.Err)
			}
			if got := sp.Attrs["error_type"]; got != tc.errType {
				t.Errorf("error_type = %q, want %q", got, tc.errType)
			}
			if got := sp.Attrs["cancel_reason"]; got != tc.reason {
				t.Errorf("cancel_reason = %q, want %q", got, tc.reason)
			}
			if sp.Attrs["function"] != tc.fn || sp.Attrs["node"] != r.Node || sp.Attrs["policy"] != string(faas.PolicyTrEnvCXL) {
				t.Errorf("span attrs %v, want function/node/policy of the attempt", sp.Attrs)
			}
			var links []obs.Link
			if tc.winnerLink {
				if winner == "" {
					t.Fatal("no attempt won the race")
				}
				links = []obs.Link{{TraceID: winner, Type: "hedge-lost"}}
			}
			if !reflect.DeepEqual(sp.Links, links) {
				t.Errorf("span links %+v, want %+v", sp.Links, links)
			}
		})
	}
}

// failureCounts sums the four failure counters over the cluster's nodes.
func failureCounts(c *Cluster) map[string]int64 {
	out := make(map[string]int64)
	for _, node := range c.Nodes() {
		m := node.Metrics()
		out["Errors"] += m.Errors.Value()
		out["CrashAborts"] += m.CrashAborts.Value()
		out["Cancelled"] += m.Cancelled.Value()
		out["DeadlineExceeded"] += m.DeadlineExceeded.Value()
	}
	return out
}
