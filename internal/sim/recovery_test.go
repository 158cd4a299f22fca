package sim

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/program"
)

// TestFaultRunCompletesVerified: a sustained-rate campaign cell runs to
// completion under the verification oracle — the post-recovery acceptance
// bar, replacing the old behaviour where detections merely stalled commit
// and forged agreement.
func TestFaultRunCompletesVerified(t *testing.T) {
	dieMode, _ := core.DIE.Info()
	p := gzipProfile(t)
	inj, err := fault.New(fault.Config{Site: fault.FU, Rate: 1e-3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run("DIE", dieMode.Base(), p, Options{Insns: 50_000, Verify: true, Injector: inj})
	if err != nil {
		t.Fatalf("verified faulty run failed: %v", err)
	}
	if inj.Injected == 0 {
		t.Fatal("injector never fired")
	}
	if r.Core.FaultsDetected == 0 || r.Core.FaultRecoveries == 0 {
		t.Errorf("detected %d, recovered %d: recovery never exercised",
			r.Core.FaultsDetected, r.Core.FaultRecoveries)
	}
	if r.Core.FaultsSilent != 0 {
		t.Errorf("%d silent corruptions under the oracle", r.Core.FaultsSilent)
	}
	if r.Core.Committed != 50_000 {
		t.Errorf("committed %d instructions, want the full 50000 budget", r.Core.Committed)
	}
}

// TestUnrecoverableFaultSurfaced: a stuck fault escalates through
// RunContext as a *core.UnrecoverableFaultError labelled with the cell's
// benchmark and configuration names.
func TestUnrecoverableFaultSurfaced(t *testing.T) {
	dieMode, _ := core.DIE.Info()
	b := program.NewBuilder("stuck")
	b.LoadConst(1, 1_000_000)
	b.LoadConst(2, 0)
	b.Label("loop")
	b.EmitOp(isa.OpAdd, 2, 2, 1)
	b.EmitImm(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, isa.ZeroReg, "loop")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	prog := b.MustBuild()

	var pc uint64
	for i, in := range prog.Code {
		if in.Op == isa.OpAdd && in.Dest == 2 {
			pc = uint64(i)
			break
		}
	}

	inj := &fault.Persistent{Site: fault.FU, PC: pc, Bit: 7}
	_, err := Run("DIE", dieMode.Base(), gzipProfile(t), Options{
		Insns:    50_000,
		Program:  prog,
		Injector: inj,
	})
	var uf *core.UnrecoverableFaultError
	if !errors.As(err, &uf) {
		t.Fatalf("Run() error = %v, want *core.UnrecoverableFaultError", err)
	}
	if uf.Bench != "stuck" || uf.Config != "DIE" {
		t.Errorf("escalation labelled %q/%q, want stuck/DIE", uf.Bench, uf.Config)
	}
	if uf.PC != pc {
		t.Errorf("escalated PC = %d, want %d", uf.PC, pc)
	}
	if uf.Retries == 0 {
		t.Error("escalation records no retries")
	}
}
