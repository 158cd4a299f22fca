package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fsim"
)

// TestRunContextMatchesRun pins Run as a pure wrapper: same inputs, same
// Result, field for field.
func TestRunContextMatchesRun(t *testing.T) {
	dieIRBMode, _ := core.DIEIRB.Info()
	p := gzipProfile(t)
	opts := Options{Insns: 20_000, Verify: true}
	a, err := Run("DIE-IRB", dieIRBMode.Base(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), "DIE-IRB", dieIRBMode.Base(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("Run and RunContext disagree on identical inputs")
	}
}

// TestRunContextPreCancelled returns the context error before any
// simulation work.
func TestRunContextPreCancelled(t *testing.T) {
	sieMode, _ := core.SIE.Info()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := RunContext(ctx, "SIE", sieMode.Base(), gzipProfile(t), Options{Insns: 1_000_000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("pre-cancelled run took %v", d)
	}
}

// TestRunContextCancelMidRun starts a run far larger than the test
// budget, cancels it shortly after, and requires a prompt return with
// the context's error.
func TestRunContextCancelMidRun(t *testing.T) {
	sieMode, _ := core.SIE.Info()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := RunContext(ctx, "SIE", sieMode.Base(), gzipProfile(t), Options{Insns: 200_000_000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A 200M-instruction run takes minutes; cancellation is checked
	// every simulated cycle, so the return must be near-immediate.
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %v to take effect", d)
	}
}

// TestSeedOption checks the three seed contracts: zero is byte-identical
// to the default, a fixed nonzero seed is reproducible, and different
// seeds generate genuinely different programs.
func TestSeedOption(t *testing.T) {
	sieMode, _ := core.SIE.Info()
	dieMode, _ := core.DIE.Info()
	p := gzipProfile(t)
	base, err := Run("SIE", sieMode.Base(), p, Options{Insns: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	zero, err := Run("SIE", sieMode.Base(), p, Options{Insns: 20_000, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, zero) {
		t.Error("Seed: 0 changed the run")
	}
	s1, err := Run("SIE", sieMode.Base(), p, Options{Insns: 20_000, Seed: 12345})
	if err != nil {
		t.Fatal(err)
	}
	s1again, err := Run("SIE", sieMode.Base(), p, Options{Insns: 20_000, Seed: 12345})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s1again) {
		t.Error("same seed did not reproduce the run")
	}
	if s1.Core.Cycles == base.Core.Cycles && s1.IPC == base.IPC {
		t.Error("nonzero seed produced a run indistinguishable from the default")
	}
	// A reseeded workload must still pass verification: the oracle sees
	// the same perturbed program.
	if _, err := Run("DIE", dieMode.Base(), p, Options{Insns: 20_000, Seed: 99, Verify: true}); err != nil {
		t.Errorf("verified run with seed failed: %v", err)
	}
}

// TestDivergenceError pins the structured error the verify oracle
// returns in place of the old panics: the message names the run and the
// divergent records, errors.As finds it through wrapping, and Unwrap
// exposes an underlying oracle failure.
func TestDivergenceError(t *testing.T) {
	div := &DivergenceError{
		Bench: "gzip", Config: "DIE-IRB", Seq: 42,
		Got:  fsim.Retired{Seq: 42, PC: 100, Result: 7},
		Want: fsim.Retired{Seq: 42, PC: 100, Result: 9},
	}
	msg := div.Error()
	for _, want := range []string{"gzip", "DIE-IRB", "seq 42", "diverged"} {
		if !strings.Contains(msg, want) {
			t.Errorf("message %q lacks %q", msg, want)
		}
	}

	wrapped := fmt.Errorf("cell failed: %w", div)
	var got *DivergenceError
	if !errors.As(wrapped, &got) || got != div {
		t.Error("errors.As does not recover the DivergenceError through wrapping")
	}

	oerr := errors.New("oracle halted early")
	div = &DivergenceError{Bench: "mesa", Config: "SIE", Seq: 7, OracleErr: oerr}
	if !errors.Is(div, oerr) {
		t.Error("Unwrap does not expose the oracle error")
	}
	if msg := div.Error(); !strings.Contains(msg, "oracle") || !strings.Contains(msg, "halted early") {
		t.Errorf("oracle-failure message %q lacks the cause", msg)
	}
}
