package core

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

// The Section 3.3 variants (decoupled scheduler, name-based reuse) and the
// clustered alternative must all retire the exact architectural stream;
// their differences are timing-only.

func decoupledCfg() Config {
	c := quicken(baseConfig(DIEIRB))
	c.Scheduler = Decoupled
	return c
}

func nameBasedCfg() Config {
	c := quicken(baseConfig(DIEIRB))
	c.IRBNameBased = true
	return c
}

func clusteredCfg() Config {
	c := quicken(baseConfig(DIE))
	c.Clustered = true
	return c
}

func TestVariantsMatchOracle(t *testing.T) {
	cfgs := map[string]Config{
		"decoupled":           decoupledCfg(),
		"name-based":          nameBasedCfg(),
		"clustered":           clusteredCfg(),
		"decoupled+namebased": func() Config { c := decoupledCfg(); c.IRBNameBased = true; return c }(),
		"clustered+irb":       func() Config { c := quicken(baseConfig(DIEIRB)); c.Clustered = true; return c }(),
	}
	for name, cfg := range cfgs {
		for _, prog := range allPrograms() {
			t.Run(name+"/"+prog.Name, func(t *testing.T) {
				runVerified(t, cfg, prog)
			})
		}
	}
}

func TestDecoupledSchedulerCostsCycles(t *testing.T) {
	// Pipelining wakeup/select adds a cycle to every dependence chain:
	// on a chain-heavy program the decoupled machine cannot be faster.
	prog := fpProgram(300)
	dc := runVerified(t, quicken(baseConfig(DIEIRB)), prog)
	de := runVerified(t, decoupledCfg(), prog)
	if de.Stats.IPC() > dc.Stats.IPC()*1.001 {
		t.Errorf("decoupled IPC %.3f above data-capture %.3f", de.Stats.IPC(), dc.Stats.IPC())
	}
}

func TestNameBasedReuseLowerButPresent(t *testing.T) {
	// The paper: "the hit rates may decrease" with name-based reuse.
	// The invariant-heavy loop reuses under both tests, but the version
	// test also rejects re-written-same-value registers, so it can only
	// be at most equal.
	prog := loopProgram(2000)
	val := runVerified(t, quicken(baseConfig(DIEIRB)), prog)
	nb := runVerified(t, nameBasedCfg(), prog)
	if nb.Stats.IRBReuseHits == 0 {
		t.Fatal("name-based reuse never hit")
	}
	if nb.Stats.IRBReuseHits > val.Stats.IRBReuseHits {
		t.Errorf("name-based hits %d exceed value-based %d",
			nb.Stats.IRBReuseHits, val.Stats.IRBReuseHits)
	}
}

func TestNameBasedRejectsRewrittenRegisters(t *testing.T) {
	// In loopProgram the invariant instructions read r5, which is never
	// rewritten, so even the name-based test hits on them; the addi on
	// r1 rewrites r1 every iteration and must never reuse.
	c := runVerified(t, nameBasedCfg(), loopProgram(1000))
	total := c.Stats.IRBReuseHits + c.Stats.DupFUExec
	frac := float64(c.Stats.IRBReuseHits) / float64(total)
	if frac < 0.3 || frac > 0.45 {
		t.Errorf("name-based reuse fraction %.2f outside the invariant band", frac)
	}
}

// ilpProgram is an ALU-bound loop: eight independent add chains per
// iteration saturate the four integer ALUs.
func ilpProgram(n int64) *program.Program {
	b := program.NewBuilder("ilp")
	b.LoadConst(1, n)
	b.LoadConst(2, 3)
	b.Label("loop")
	for r := isa.Reg(8); r < 16; r++ {
		b.EmitOp(isa.OpAdd, r, r, 2)
		b.EmitOp(isa.OpXor, r+8, r+8, 2)
	}
	b.EmitImm(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, isa.ZeroReg, "loop")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	return b.MustBuild()
}

func TestClusteredRemovesALUContention(t *testing.T) {
	// The clustered machine gives each stream its own full set of ALUs:
	// on an ALU-saturating loop it must beat the shared-ALU DIE...
	prog := ilpProgram(2000)
	die := runVerified(t, quicken(baseConfig(DIE)), prog)
	clu := runVerified(t, clusteredCfg(), prog)
	if clu.Stats.IPC() <= die.Stats.IPC() {
		t.Errorf("clustered IPC %.3f not above shared DIE %.3f on ALU-bound loop",
			clu.Stats.IPC(), die.Stats.IPC())
	}
	// ...while the SIE bound still holds.
	sie := runVerified(t, quicken(baseConfig(SIE)), prog)
	if clu.Stats.IPC() > sie.Stats.IPC()*1.01 {
		t.Errorf("clustered IPC %.3f above SIE %.3f", clu.Stats.IPC(), sie.Stats.IPC())
	}
}

func TestClusteredValidation(t *testing.T) {
	bad := baseConfig(SIE)
	bad.Clustered = true
	if _, err := New(bad, loopProgram(1)); err == nil {
		t.Error("Clustered SIE accepted")
	}
	badSched := baseConfig(SIE)
	badSched.Scheduler = "tomasulo"
	if _, err := New(badSched, loopProgram(1)); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

func TestClusteredReplicatesSingletonUnits(t *testing.T) {
	// The base machine has one FP multiplier; each cluster gets its own
	// copy, so both streams' fdiv/fsqrt work must still complete.
	c := clusteredCfg()
	runVerified(t, c, fpProgram(50))
}

func TestSquashReuseHarvestsWrongPath(t *testing.T) {
	// branchyProgram mispredicts often; wrong-path work re-executes
	// after recovery, so harvesting it must raise reuse hits.
	prog := branchyProgram(800)
	base := runVerified(t, quicken(baseConfig(DIEIRB)), prog)
	cfg := quicken(baseConfig(DIEIRB))
	cfg.IRBSquashReuse = true
	sq := runVerified(t, cfg, prog)
	if sq.Stats.IRBReuseHits <= base.Stats.IRBReuseHits {
		t.Errorf("squash reuse hits %d not above base %d",
			sq.Stats.IRBReuseHits, base.Stats.IRBReuseHits)
	}
}

func TestChainingCollapsesDependentReuse(t *testing.T) {
	// A serial chain of invariant adds: every link reuses. With Sn+d
	// chaining the whole chain completes in one test cascade; without
	// it each link waits a cycle for the previous link's value.
	b := program.NewBuilder("chain")
	b.LoadConst(1, 2000)
	b.LoadConst(5, 3)
	b.Label("loop")
	b.EmitOp(isa.OpAdd, 8, 5, 5) // invariant chain root
	for r := isa.Reg(9); r < 20; r++ {
		b.EmitOp(isa.OpAdd, r, r-1, 5) // each link depends on the previous
	}
	b.EmitImm(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, isa.ZeroReg, "loop")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	prog := b.MustBuild()

	sie := quicken(baseConfig(SIE))
	sie.Mode = SIEIRB
	// A small window stops independent iterations from overlapping, so
	// the chain's completion latency is what IPC measures.
	sie.RUUSize = 20
	plain := runVerified(t, sie, prog)
	chainCfg := sie
	chainCfg.IRBChaining = true
	chained := runVerified(t, chainCfg, prog)
	if plain.Stats.IRBReuseHits == 0 {
		t.Fatal("invariant chain never reused")
	}
	if chained.Stats.IPC() <= plain.Stats.IPC() {
		t.Errorf("chaining IPC %.3f not above per-cycle reuse %.3f",
			chained.Stats.IPC(), plain.Stats.IPC())
	}
}
