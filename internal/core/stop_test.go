package core

import (
	"errors"
	"testing"

	"repro/internal/fsim"
)

// TestRequestStopHaltsRun stops a run from the OnCommit callback (the
// same cycle-granular path context cancellation uses) and checks the
// core returns ErrStopped with stats intact.
func TestRequestStopHaltsRun(t *testing.T) {
	c, err := New(baseConfig(SIE), loopProgram(100_000))
	if err != nil {
		t.Fatal(err)
	}
	c.OnCommit = func(rec *fsim.Retired) {
		if c.Stats.Committed >= 500 {
			c.RequestStop()
		}
	}
	if err := c.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Run() = %v, want ErrStopped", err)
	}
	if c.Stats.Committed < 500 {
		t.Errorf("stopped after %d commits, want >= 500", c.Stats.Committed)
	}
	// The stop is cycle-granular: the run must not have drained the
	// whole 100k-iteration program.
	if c.Stats.Committed > 5_000 {
		t.Errorf("stop was not prompt: %d commits", c.Stats.Committed)
	}
	if c.Stats.Cycles == 0 {
		t.Error("Stats.Cycles not finalized on stop")
	}
}

// TestRequestStopBeforeRun is the degenerate case: a pre-stopped core
// returns immediately without simulating a cycle.
func TestRequestStopBeforeRun(t *testing.T) {
	c, err := New(baseConfig(SIE), loopProgram(1_000))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestStop()
	if err := c.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Run() = %v, want ErrStopped", err)
	}
	if c.Stats.Committed != 0 {
		t.Errorf("pre-stopped core committed %d instructions", c.Stats.Committed)
	}
}

// TestAbortCarriesError checks Abort terminates the run and Run returns
// exactly the supplied error — the mechanism the verify oracle uses to
// surface a divergence instead of panicking.
func TestAbortCarriesError(t *testing.T) {
	c, err := New(baseConfig(SIE), loopProgram(100_000))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("divergence at seq 42")
	c.OnCommit = func(rec *fsim.Retired) {
		if rec.Seq == 42 {
			c.Abort(boom)
		}
	}
	if err := c.Run(); !errors.Is(err, boom) {
		t.Fatalf("Run() = %v, want the aborting error", err)
	}
}

// TestCleanRunReturnsNil pins the no-error contract for a normal halt.
func TestCleanRunReturnsNil(t *testing.T) {
	c, err := New(baseConfig(SIE), loopProgram(200))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("Run() = %v, want nil", err)
	}
	if c.Stats.Committed == 0 {
		t.Error("no instructions committed")
	}
}
