package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/isa"
)

// TestModeRegistryExhaustive is the registry's contract: every registered
// mode has a complete descriptor whose base machine validates and
// simulates a smoke workload oracle-verified. A mode that registers but
// cannot run never survives this test, so discovery surfaces (CLIs,
// GET /v1/modes) can trust the registry blindly.
func TestModeRegistryExhaustive(t *testing.T) {
	infos := Modes()
	if len(infos) < 6 {
		t.Fatalf("only %d registered modes, want the 6 built-ins", len(infos))
	}
	seen := make(map[Mode]bool)
	for _, mi := range infos {
		mi := mi
		if seen[mi.Mode] {
			t.Fatalf("mode %q listed twice", mi.Mode)
		}
		seen[mi.Mode] = true
		t.Run(string(mi.Mode), func(t *testing.T) {
			if mi.Description == "" {
				t.Error("empty description")
			}
			if got, ok := ModeByName(string(mi.Mode)); !ok || got.Mode != mi.Mode {
				t.Errorf("ModeByName(%q) did not round-trip", mi.Mode)
			}
			if mi.Caps != mi.Mode.Caps() {
				t.Error("Mode.Caps() disagrees with the registered descriptor")
			}
			if mi.Caps.Corrects && !mi.Caps.Detects {
				t.Error("a correcting mode must also detect")
			}
			cfg := mi.Base()
			if cfg.Mode != mi.Mode {
				t.Fatalf("Base() built mode %q", cfg.Mode)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("base config invalid: %v", err)
			}
			c := runVerified(t, quicken(cfg), loopProgram(300))
			if c.Stats.Committed == 0 {
				t.Fatal("smoke workload committed nothing")
			}
			if want := uint64(cfg.Streams()) * c.Stats.Committed; c.Stats.CopiesCommitted != want {
				t.Errorf("CopiesCommitted = %d, want %d (%d streams)",
					c.Stats.CopiesCommitted, want, cfg.Streams())
			}
		})
	}
	if names := ModeNames(); len(names) != len(infos) {
		t.Errorf("ModeNames() lists %d names for %d modes", len(names), len(infos))
	}
	if _, ok := ModeByName("no-such-mode"); ok {
		t.Error("ModeByName accepted an unregistered name")
	}
}

// TestModeValidationNamesRegistry: the unknown-mode error must teach the
// registered names, since the registry is now the only source of truth.
func TestModeValidationNamesRegistry(t *testing.T) {
	bad := baseConfig(SIE)
	bad.Mode = "QMR"
	err := bad.Validate()
	if err == nil {
		t.Fatal("unregistered mode accepted")
	}
	for _, name := range ModeNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered mode %q", err, name)
		}
	}
}

func baseTMR() Config    { return baseConfig(TMR) }
func baseREPLAY() Config { return baseConfig(REPLAY) }

// TestTMRTriplicatesDynamicInstructions mirrors the DIE doubling test:
// TMR commits VoteWidth copies per architected instruction.
func TestTMRTriplicatesDynamicInstructions(t *testing.T) {
	for _, width := range []int{3, 5} {
		cfg := quicken(baseTMR())
		cfg.VoteWidth = width
		c := runVerified(t, cfg, loopProgram(300))
		if c.Stats.CopiesCommitted != uint64(width)*c.Stats.Committed {
			t.Errorf("width %d: CopiesCommitted = %d, want %d",
				width, c.Stats.CopiesCommitted, uint64(width)*c.Stats.Committed)
		}
	}
}

// TestTMRCorrectsWithoutRewind is TMR's defining property: a single-copy
// strike is outvoted by the surviving majority and the instruction retires
// corrected — no flush, no re-execution, no repair window — while the
// oracle confirms the architected stream. Both the primary and a shadow
// copy are struck, since the old pair-check path special-cased streams.
func TestTMRCorrectsWithoutRewind(t *testing.T) {
	prog := loopProgram(300)
	pc := findPC(t, prog, isa.OpAdd, 2)
	for _, dup := range []bool{false, true} {
		name := "primary"
		if dup {
			name = "shadow"
		}
		t.Run(name, func(t *testing.T) {
			inj := &fault.Persistent{Site: fault.FU, PC: pc, Dup: dup, Bit: 5, MaxFaults: 1}
			c := runInjected(t, quicken(baseTMR()), prog, inj)
			if inj.Injected != 1 {
				t.Fatalf("injected %d faults, want 1", inj.Injected)
			}
			if c.Stats.FaultsDetected != 1 {
				t.Errorf("FaultsDetected = %d, want 1", c.Stats.FaultsDetected)
			}
			if c.Stats.FaultsCorrected != 1 {
				t.Errorf("FaultsCorrected = %d, want 1", c.Stats.FaultsCorrected)
			}
			if c.Stats.FaultRecoveries != 0 {
				t.Errorf("FaultRecoveries = %d, want 0 (vote needs no rewind)",
					c.Stats.FaultRecoveries)
			}
			if c.Stats.FaultsSilent != 0 {
				t.Errorf("FaultsSilent = %d, want 0", c.Stats.FaultsSilent)
			}
			if mttr := c.Stats.MTTR(); mttr != 0 {
				t.Errorf("MTTR = %.2f, want 0 (correction is instantaneous)", mttr)
			}
		})
	}
}

// TestTMRCampaignZeroSilent: a sustained stochastic campaign under the
// single-fault model must be fully covered — every injected fault is
// masked or outvoted, never silent, and no rewind is ever needed.
func TestTMRCampaignZeroSilent(t *testing.T) {
	inj, err := fault.New(fault.Config{Site: fault.FU, Rate: 2e-3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	c := runInjected(t, quicken(baseTMR()), loopProgram(2000), inj)
	if inj.Injected == 0 {
		t.Fatal("campaign injected nothing")
	}
	if c.Stats.FaultsSilent != 0 {
		t.Errorf("FaultsSilent = %d, want 0", c.Stats.FaultsSilent)
	}
	if c.Stats.FaultsCorrected == 0 {
		t.Error("no faults corrected by vote")
	}
	if c.Stats.FaultRecoveries != 0 {
		t.Errorf("FaultRecoveries = %d, want 0 under single-copy strikes",
			c.Stats.FaultRecoveries)
	}
	if got := c.Stats.FaultsCorrected + c.Stats.FaultsMasked; got > inj.Injected {
		t.Errorf("corrected+masked = %d exceeds injected %d", got, inj.Injected)
	}
}

// TestReplayDetectsAtEpochScale: REPLAY commits unchecked, so a strike is
// surfaced only by the epoch's replay comparison — detection happens, is
// never silent, and its repair latency is on the order of the epoch, not
// the pipeline depth. The run must still be oracle-clean (the rewind is a
// timing charge; architected state was never wrong).
func TestReplayDetectsAtEpochScale(t *testing.T) {
	inj, err := fault.New(fault.Config{Site: fault.FU, Rate: 2e-3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := quicken(baseREPLAY())
	cfg.ReplayEpoch = 256
	c := runInjected(t, cfg, loopProgram(2000), inj)
	if inj.Injected == 0 {
		t.Fatal("campaign injected nothing")
	}
	if c.Stats.FaultsDetected == 0 {
		t.Fatal("replay comparison detected nothing")
	}
	if c.Stats.FaultsSilent != 0 {
		t.Errorf("FaultsSilent = %d, want 0 (replay has no escape channel)",
			c.Stats.FaultsSilent)
	}
	if c.Stats.FaultRecoveries == 0 {
		t.Error("detections triggered no epoch rewinds")
	}
	if c.Stats.ReplayEpochs == 0 {
		t.Error("no epochs checked")
	}
	if c.Stats.ReplayStallCycles == 0 {
		t.Error("replay bandwidth was never charged")
	}
	// Detection latency is epoch-scale: the faulting commit waited for
	// its epoch boundary, far beyond DIE's refetch-round-trip MTTR.
	if mttr := c.Stats.MTTR(); mttr < 64 {
		t.Errorf("MTTR = %.1f cycles, want epoch-scale (>= 64)", mttr)
	}
}

// TestReplayChargesBandwidth: the epoch checks make REPLAY strictly slower
// than SIE on the same program, and the final partial epoch is flushed so
// every commit is covered by some checked epoch.
func TestReplayChargesBandwidth(t *testing.T) {
	prog := loopProgram(1000)
	sie := runVerified(t, quicken(baseConfig(SIE)), prog)
	rep := runVerified(t, quicken(baseREPLAY()), prog)
	if rep.Stats.Cycles <= sie.Stats.Cycles {
		t.Errorf("REPLAY (%d cycles) not slower than SIE (%d): replay bandwidth unpaid",
			rep.Stats.Cycles, sie.Stats.Cycles)
	}
	// Every committed instruction must fall inside a checked epoch,
	// including the tail: ceil(committed/epoch) epochs.
	k := uint64(DefaultReplayEpoch)
	if want := (rep.Stats.Committed + k - 1) / k; rep.Stats.ReplayEpochs != want {
		t.Errorf("ReplayEpochs = %d, want %d for %d commits (tail epoch unflushed?)",
			rep.Stats.ReplayEpochs, want, rep.Stats.Committed)
	}
	// A longer epoch amortizes better: fewer checks, fewer stall cycles.
	long := quicken(baseREPLAY())
	long.ReplayEpoch = 4096
	l := runVerified(t, long, prog)
	if l.Stats.ReplayEpochs >= rep.Stats.ReplayEpochs {
		t.Errorf("epoch 4096 checked %d epochs, default %d checked %d",
			l.Stats.ReplayEpochs, k, rep.Stats.ReplayEpochs)
	}
}

// TestDifferentialReplayAndTMRMatchSIE extends the differential property
// to the new modes: under zero faults, REPLAY and TMR must produce commit
// streams bit-identical to SIE — replay is pure timing, and a unanimous
// vote is architecturally invisible.
func TestDifferentialReplayAndTMRMatchSIE(t *testing.T) {
	for _, seed := range []uint64{3, 21, 77} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			prog := randomProgram(seed)
			sieStream, sieStats := commitStream(t, quicken(baseConfig(SIE)), prog)
			for _, mode := range []Mode{REPLAY, TMR} {
				stream, stats := commitStream(t, quicken(baseConfig(mode)), prog)
				if stats.Committed != sieStats.Committed {
					t.Fatalf("%s committed %d, SIE %d", mode, stats.Committed, sieStats.Committed)
				}
				if !reflect.DeepEqual(stream, sieStream) {
					t.Fatalf("%s commit stream diverged from SIE", mode)
				}
			}
		})
	}
}
