package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/program"
)

// randomProgram generates a random but well-formed program: a loop whose
// body mixes ALU, memory, FP and branch instructions with random operands
// over disjoint register classes, guaranteeing termination via a dedicated
// counter register. It is the fuzzing companion to the hand-written test
// programs: any timing-model bug that corrupts dataflow shows up as an
// oracle divergence on some seed.
func randomProgram(seed uint64) *program.Program {
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	b := program.NewBuilder("random")
	base := b.Array(256, func(i int) uint64 { return rng.Uint64() >> 34 })

	const (
		ctr  isa.Reg = 1 // loop counter: never touched by random ops
		addr isa.Reg = 2 // memory base: never touched by random ops
	)
	b.LoadConst(ctr, int64(rng.IntN(150)+20))
	b.LoadConst(addr, int64(base))
	// General-purpose pools for random operands.
	intRegs := []isa.Reg{3, 4, 5, 6, 7, 8, 9, 10}
	fpRegs := []isa.Reg{isa.FP0 + 1, isa.FP0 + 2, isa.FP0 + 3, isa.FP0 + 4}
	for _, r := range intRegs {
		b.LoadConst(r, int64(rng.IntN(1000)))
	}
	for i, r := range fpRegs {
		b.EmitOp(isa.OpCvtIF, r, intRegs[i], 0)
	}

	intOps := []isa.Op{isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpSar, isa.OpSlt, isa.OpSltu, isa.OpMul,
		isa.OpDiv, isa.OpRem, isa.OpDivu}
	fpOps := []isa.Op{isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv, isa.OpFNeg, isa.OpFAbs}

	pick := func(pool []isa.Reg) isa.Reg { return pool[rng.IntN(len(pool))] }

	b.Label("loop")
	bodyLen := rng.IntN(24) + 8
	for i := 0; i < bodyLen; i++ {
		switch rng.IntN(10) {
		case 0, 1, 2, 3, 4: // integer ALU
			op := intOps[rng.IntN(len(intOps))]
			b.EmitOp(op, pick(intRegs), pick(intRegs), pick(intRegs))
		case 5: // FP
			op := fpOps[rng.IntN(len(fpOps))]
			b.EmitOp(op, pick(fpRegs), pick(fpRegs), pick(fpRegs))
		case 6: // load within the array
			off := int32(rng.IntN(256) * 8)
			b.EmitImm(isa.OpLoad, pick(intRegs), addr, off)
		case 7: // store within the array
			off := int32(rng.IntN(256) * 8)
			b.Emit(isa.Instr{Op: isa.OpStore, Src1: addr, Src2: pick(intRegs), Imm: off})
		case 8: // short forward data-dependent branch
			label := labelName(seed, i)
			b.Branch(isa.OpBlt, pick(intRegs), pick(intRegs), label)
			b.EmitOp(isa.OpAdd, pick(intRegs), pick(intRegs), pick(intRegs))
			b.Label(label)
		case 9: // immediate op
			b.EmitImm(isa.OpAddi, pick(intRegs), pick(intRegs), int32(rng.IntN(64)-32))
		}
	}
	b.EmitImm(isa.OpAddi, ctr, ctr, -1)
	b.Branch(isa.OpBne, ctr, isa.ZeroReg, "loop")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	return b.MustBuild()
}

func labelName(seed uint64, i int) string {
	return "rnd_" + string(rune('a'+seed%26)) + "_" + string(rune('a'+i%26)) +
		string(rune('a'+(i/26)%26))
}

// TestRandomProgramsMatchOracle fuzzes the pipeline: for random programs
// and every execution mode, the retired stream must equal the functional
// execution exactly.
func TestRandomProgramsMatchOracle(t *testing.T) {
	f := func(seedRaw uint16) bool {
		prog := randomProgram(uint64(seedRaw))
		for _, cfg := range allModes() {
			runVerified(t, cfg, prog)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestRandomProgramsDIEInvariants fuzzes the dual-execution bookkeeping:
// copies committed must be exactly twice the architected count and every
// random program must produce identical architected counts in all modes.
func TestRandomProgramsDIEInvariants(t *testing.T) {
	f := func(seedRaw uint16) bool {
		prog := randomProgram(uint64(seedRaw))
		sie := runVerified(t, quicken(baseConfig(SIE)), prog)
		die := runVerified(t, quicken(baseConfig(DIE)), prog)
		irb := runVerified(t, quicken(baseConfig(DIEIRB)), prog)
		return die.Stats.CopiesCommitted == 2*die.Stats.Committed &&
			irb.Stats.CopiesCommitted == 2*irb.Stats.Committed &&
			sie.Stats.Committed == die.Stats.Committed &&
			sie.Stats.Committed == irb.Stats.Committed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}
