package faas

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// hedgePlatform builds a TrEnv-CXL platform with every Table 4 function
// registered, capturing terminal outcomes.
func hedgePlatform(t *testing.T) (*Platform, *[]InvocationResult) {
	t.Helper()
	results := new([]InvocationResult)
	cfg := DefaultConfig(PolicyTrEnvCXL)
	cfg.Node = "n0"
	cfg.OnResult = func(r InvocationResult) { *results = append(*results, r) }
	pl := New(cfg)
	for _, p := range workload.Table4() {
		if err := pl.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	return pl, results
}

// TestCancelledAttemptReleasesAccounting: cancelling an attempt
// mid-execution aborts it at the next checkpoint with OutcomeCancelled
// and unwinds its instance accounting completely — no memory stays
// charged, unlike a successful invocation whose warm instance lingers.
func TestCancelledAttemptReleasesAccounting(t *testing.T) {
	pl, results := hedgePlatform(t)
	before := pl.UsedMemory()
	tok := NewCancelToken("race")
	pl.Engine().At(0, "dispatch", "JS", func(p *sim.Proc) {
		pl.InvokeAttempt(p, "JS", "test", 0, tok)
	})
	// JS executes for ~100ms; 10ms lands mid-exec, after the instance
	// was admitted and started.
	pl.Engine().At(10*time.Millisecond, "cancel", "", func(p *sim.Proc) {
		tok.Cancel("hedge-lost", "winner-trace")
	})
	pl.Engine().Run()

	if len(*results) != 1 {
		t.Fatalf("results = %d, want 1", len(*results))
	}
	r := (*results)[0]
	if r.Outcome != OutcomeCancelled {
		t.Fatalf("outcome %q, want %q", r.Outcome, OutcomeCancelled)
	}
	var ec *ErrCancelled
	if !errors.As(r.Err, &ec) || ec.Reason != "hedge-lost" || ec.Winner != "winner-trace" {
		t.Fatalf("error %v (%T), want *ErrCancelled{hedge-lost, winner-trace}", r.Err, r.Err)
	}
	if r.Token != tok {
		t.Fatal("result does not carry the attempt's cancel token")
	}
	if pl.Metrics().Cancelled.Value() != 1 {
		t.Fatalf("cancelled counter = %d, want 1", pl.Metrics().Cancelled.Value())
	}
	if used := pl.UsedMemory(); used != before {
		t.Fatalf("used memory = %d after cancel, want %d (instance accounting must unwind)", used, before)
	}
	if pl.Active() != 0 {
		t.Fatalf("active = %d after drain", pl.Active())
	}
}

// TestPreCancelledAttemptAbortsAtAdmission: a token cancelled before
// the attempt reaches the platform aborts at the first checkpoint —
// before any instance exists — still delivering a terminal outcome.
func TestPreCancelledAttemptAbortsAtAdmission(t *testing.T) {
	pl, results := hedgePlatform(t)
	tok := NewCancelToken(nil)
	tok.Cancel("hedge-lost", "")
	pl.Engine().At(0, "dispatch", "JS", func(p *sim.Proc) {
		pl.InvokeAttempt(p, "JS", "test", 0, tok)
	})
	pl.Engine().Run()

	if len(*results) != 1 || (*results)[0].Outcome != OutcomeCancelled {
		t.Fatalf("results = %+v, want one cancelled outcome", *results)
	}
	if pl.Metrics().Cancelled.Value() != 1 {
		t.Fatalf("cancelled counter = %d, want 1 (aborts are recorded, not lost)", pl.Metrics().Cancelled.Value())
	}
	if pl.UsedMemory() != 0 {
		t.Fatalf("used memory = %d, want 0 (no instance was ever built)", pl.UsedMemory())
	}
}

// invokeWithDeadline runs one attempt of fn at time 0 with a deadline.
func invokeWithDeadline(pl *Platform, fn string, deadline time.Duration) {
	pl.Engine().At(0, "dispatch", fn, func(p *sim.Proc) {
		pl.InvokeAttempt(p, fn, "", deadline, nil)
	})
	pl.Engine().Run()
}

// TestDeadlineExceeded: an attempt that outlives its deadline is
// abandoned at a checkpoint with OutcomeDeadline and a typed error; a
// generous deadline leaves the same invocation untouched.
func TestDeadlineExceeded(t *testing.T) {
	pl, results := hedgePlatform(t)
	invokeWithDeadline(pl, "JS", time.Millisecond) // JS runs ~100ms, far past the 1ms deadline

	if len(*results) != 1 {
		t.Fatalf("results = %d, want 1", len(*results))
	}
	r := (*results)[0]
	if r.Outcome != OutcomeDeadline {
		t.Fatalf("outcome %q, want %q", r.Outcome, OutcomeDeadline)
	}
	var ed *ErrDeadlineExceeded
	if !errors.As(r.Err, &ed) || ed.Function != "JS" || ed.Deadline != time.Millisecond {
		t.Fatalf("error %v (%T), want *ErrDeadlineExceeded{JS, 1ms}", r.Err, r.Err)
	}
	if pl.Metrics().DeadlineExceeded.Value() != 1 {
		t.Fatalf("deadline counter = %d, want 1", pl.Metrics().DeadlineExceeded.Value())
	}
	if pl.UsedMemory() != 0 {
		t.Fatalf("used memory = %d, want 0 (deadline abort must unwind accounting)", pl.UsedMemory())
	}
}

// TestDeadlineMet: with a deadline comfortably above the invocation's
// latency the outcome is plain success and nothing is charged to the
// deadline counter.
func TestDeadlineMet(t *testing.T) {
	pl, results := hedgePlatform(t)
	invokeWithDeadline(pl, "JS", time.Hour)

	if len(*results) != 1 || (*results)[0].Outcome != OutcomeSuccess {
		t.Fatalf("results = %+v, want one success", *results)
	}
	if pl.Metrics().DeadlineExceeded.Value() != 0 {
		t.Fatalf("deadline counter = %d, want 0", pl.Metrics().DeadlineExceeded.Value())
	}
}

// TestCancelTokenNilSafety: every CancelToken method must be nil-safe —
// the invoke path checks tokens unconditionally.
func TestCancelTokenNilSafety(t *testing.T) {
	var tok *CancelToken
	tok.Cancel("x", "y")
	if tok.Cancelled() || tok.TraceID() != "" || tok.Meta() != nil {
		t.Fatal("nil token must read as never-cancelled and empty")
	}
	tok = NewCancelToken(42)
	if tok.Cancelled() {
		t.Fatal("fresh token reads cancelled")
	}
	tok.Cancel("first", "w1")
	tok.Cancel("second", "w2") // one-way latch: the first cancel sticks
	if !tok.Cancelled() || tok.Meta() != 42 {
		t.Fatal("token lost its latch or meta")
	}
	if tok.reason != "first" || tok.winner != "w1" {
		t.Fatalf("latch overwritten: reason=%q winner=%q", tok.reason, tok.winner)
	}
}
