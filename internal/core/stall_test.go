package core

import (
	"testing"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/program"
)

// Structural-stall and boundary-condition tests: each shrinks one resource
// until the corresponding stall path fires, while the oracle check proves
// the pipeline still retires the correct stream.

func TestTinyRUUStalls(t *testing.T) {
	cfg := quicken(baseConfig(SIE))
	cfg.RUUSize = 4
	c := runVerified(t, cfg, loopProgram(300))
	if c.Stats.RUUFullStalls == 0 {
		t.Error("4-entry RUU never filled")
	}
	big := runVerified(t, quicken(baseConfig(SIE)), loopProgram(300))
	if c.Stats.IPC() >= big.Stats.IPC() {
		t.Errorf("tiny RUU IPC %.3f not below full RUU %.3f", c.Stats.IPC(), big.Stats.IPC())
	}
}

func TestTinyLSQStalls(t *testing.T) {
	cfg := quicken(baseConfig(SIE))
	cfg.LSQSize = 1
	c := runVerified(t, cfg, memProgram(100))
	if c.Stats.LSQFullStalls == 0 {
		t.Error("1-entry LSQ never filled")
	}
}

func TestTinyFetchQueue(t *testing.T) {
	cfg := quicken(baseConfig(SIE))
	cfg.FetchQueue = 2
	c := runVerified(t, cfg, loopProgram(300))
	// A 2-entry fetch queue cannot feed an 8-wide dispatch.
	if c.Stats.IPC() > 2.0 {
		t.Errorf("IPC %.3f exceeds the fetch-queue bound", c.Stats.IPC())
	}
}

func TestColdICacheStallsFetch(t *testing.T) {
	cfg := quicken(baseConfig(SIE))
	// One-set L1I: nearly every block transition misses.
	cfg.Cache.L1I.Sets = 1
	cfg.Cache.L1I.Assoc = 1
	slow := runVerified(t, cfg, branchyProgram(200))
	fast := runVerified(t, quicken(baseConfig(SIE)), branchyProgram(200))
	if slow.Stats.IPC() >= fast.Stats.IPC() {
		t.Errorf("thrashing L1I IPC %.3f not below normal %.3f",
			slow.Stats.IPC(), fast.Stats.IPC())
	}
	if slow.Mem().L1I.Stats.Misses == 0 {
		t.Error("one-set L1I never missed")
	}
}

// notTakenProgram loops over branches that are never taken — trivial for
// a trained predictor, worst-case for static-taken.
func notTakenProgram(n int64) *program.Program {
	b := program.NewBuilder("nottaken")
	b.LoadConst(1, n)
	b.LoadConst(2, 7)
	b.Label("loop")
	for i := 0; i < 3; i++ {
		b.Branch(isa.OpBeq, 2, isa.ZeroReg, "never") // 7 != 0: never taken
		b.EmitOp(isa.OpAdd, 3, 3, 2)
	}
	b.EmitImm(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, isa.ZeroReg, "loop")
	b.Label("never")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	return b.MustBuild()
}

func TestWorseBpredCostsIPC(t *testing.T) {
	taken := quicken(baseConfig(SIE))
	taken.Bpred.Kind = bpred.Taken
	worse := runVerified(t, taken, notTakenProgram(400))
	good := runVerified(t, quicken(baseConfig(SIE)), notTakenProgram(400))
	if worse.Stats.IPC() >= good.Stats.IPC() {
		t.Errorf("static-taken IPC %.3f not below combined-predictor IPC %.3f",
			worse.Stats.IPC(), good.Stats.IPC())
	}
	if worse.Stats.Mispredicts <= good.Stats.Mispredicts {
		t.Errorf("static-taken mispredicts %d not above combined %d",
			worse.Stats.Mispredicts, good.Stats.Mispredicts)
	}
}

func TestSingleIssueWidth(t *testing.T) {
	cfg := quicken(baseConfig(SIE))
	cfg.IssueWidth = 1
	c := runVerified(t, cfg, loopProgram(500))
	if c.Stats.IPC() > 1.0 {
		t.Errorf("IPC %.3f exceeds the single-issue bound", c.Stats.IPC())
	}
	if c.Stats.ReadyNotIssued == 0 {
		t.Error("single-issue machine never had ready-but-unissued work")
	}
}

// Detected-fault behaviour (recovery, not a commit stall) is covered by
// TestRecoveryReExecutes and friends in recovery_test.go.

func TestIRBPortStarvationReducesReuse(t *testing.T) {
	prog := loopProgram(2000)
	full := runVerified(t, quicken(baseConfig(DIEIRB)), prog)

	starved := quicken(baseConfig(DIEIRB))
	starved.IRB.ReadPorts = 1
	starved.IRB.WritePorts = 1
	starved.IRB.RWPorts = 0
	s := runVerified(t, starved, prog)
	if s.IRB().Stats.ReadDenied == 0 {
		t.Error("single read port never denied")
	}
	if s.Stats.IRBReuseHits >= full.Stats.IRBReuseHits {
		t.Errorf("starved ports reuse %d not below full ports %d",
			s.Stats.IRBReuseHits, full.Stats.IRBReuseHits)
	}
}

func TestHaltOnlyProgram(t *testing.T) {
	b := program.NewBuilder("halt-only")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	prog := b.MustBuild()
	for _, cfg := range allModes() {
		c, err := New(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(); err != nil {
			t.Fatalf("%s: %v", cfg.Mode, err)
		}
		if c.Stats.Committed != 1 {
			t.Errorf("%s: committed %d, want 1", cfg.Mode, c.Stats.Committed)
		}
	}
}

// jumpTableProgram drives an indirect jump through a two-entry jump table
// selected by the low bit of a counter.
func jumpTableProgram(n int64) *program.Program {
	b := program.NewBuilder("jumptable")
	b.LoadConst(1, n) // counter
	b.Label("loop")
	b.EmitImm(isa.OpAddi, 2, isa.ZeroReg, 1)
	b.EmitOp(isa.OpAnd, 2, 1, 2) // r2 = counter & 1
	// r3 = (r2 == 0) ? &even : &odd, via arithmetic selection.
	b.LoadConst(4, 0)                      // patched below to &even
	b.LoadConst(5, 0)                      // patched below to &odd
	b.EmitOp(isa.OpSub, 6, isa.ZeroReg, 2) // r6 = -r2 (all ones if odd)
	b.EmitOp(isa.OpAnd, 7, 5, 6)           // r7 = odd if odd
	b.EmitOp(isa.OpXor, 6, 6, 6)           // r6 = 0
	b.EmitOp(isa.OpSub, 6, 6, 2)           // r6 = -r2 again
	b.Emit(isa.Instr{Op: isa.OpNop})
	b.EmitOp(isa.OpSltu, 8, isa.ZeroReg, 2) // r8 = r2 != 0
	b.EmitImm(isa.OpAddi, 8, 8, -1)         // r8 = 0 if odd, -1 if even
	b.EmitOp(isa.OpAnd, 9, 4, 8)            // r9 = even if even
	b.EmitOp(isa.OpOr, 3, 7, 9)             // r3 = selected target
	b.Emit(isa.Instr{Op: isa.OpJalr, Dest: isa.ZeroReg, Src1: 3})
	b.Label("even")
	b.EmitImm(isa.OpAddi, 10, 10, 1)
	b.Jump("join")
	b.Label("odd")
	b.EmitImm(isa.OpAddi, 11, 11, 1)
	b.Label("join")
	b.EmitImm(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, isa.ZeroReg, "loop")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	p := b.MustBuild()
	// Patch the two target constants now that label PCs are known.
	var evenPC, oddPC int64
	for pc, in := range p.Code {
		if in.Op == isa.OpAddi && in.Dest == 10 {
			evenPC = int64(pc)
		}
		if in.Op == isa.OpAddi && in.Dest == 11 {
			oddPC = int64(pc)
		}
	}
	for pc, in := range p.Code {
		if in.Op == isa.OpAddi && in.Dest == 4 && in.Src1 == isa.ZeroReg && in.Imm == 0 {
			p.Code[pc].Imm = int32(evenPC)
		}
		if in.Op == isa.OpAddi && in.Dest == 5 && in.Src1 == isa.ZeroReg && in.Imm == 0 {
			p.Code[pc].Imm = int32(oddPC)
		}
	}
	return p
}

func TestIndirectJumpBTBTraining(t *testing.T) {
	// A jump table exercised repeatedly: the BTB should learn stable
	// targets and cut indirect mispredictions over time.
	c := runVerified(t, quicken(baseConfig(SIE)), jumpTableProgram(400))
	st := c.Bpred().Stats
	if st.IndirJumps == 0 {
		t.Fatal("no indirect jumps recorded")
	}
	if st.IndirMiss >= st.IndirJumps {
		t.Errorf("BTB never learned: %d misses of %d", st.IndirMiss, st.IndirJumps)
	}
}
