// Package fsim implements the functional (architectural) simulator: an
// in-order interpreter for the ISA defined in internal/isa. It plays two
// roles in the repository:
//
//   - It is the value engine of the timing core. Like SimpleScalar's
//     sim-outorder, the out-of-order core executes instructions functionally
//     at dispatch (in fetch order) and plays out timing separately; fsim
//     provides that dispatch-front execution, including a copy-on-write
//     overlay (Front) for wrong-path instructions beyond a mispredicted
//     branch.
//
//   - It is the golden model. An independent Machine stepped at commit
//     verifies that the timing core retires exactly the correct-path
//     instruction stream with correct values, so timing bugs surface as
//     test failures instead of silently skewing IPC.
package fsim

import (
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/program"
)

// Retired describes one dynamically executed instruction with all values
// resolved. The timing core carries Retired records through the pipeline:
// operand values feed the IRB reuse test, results feed the commit-time
// check-&-retire comparison of DIE, and NextPC feeds branch resolution.
type Retired struct {
	Seq   uint64 // 1-based dynamic instruction number (0 for wrong-path)
	PC    uint64
	Instr isa.Instr

	Src1, Src2 uint64 // operand values read (bit patterns for FP)
	Result     uint64 // value written to Dest (loads: loaded value)
	Addr       uint64 // effective address for loads/stores
	StoreVal   uint64 // value written to memory for stores

	Taken  bool   // conditional branch outcome
	NextPC uint64 // PC of the next instruction in program order
	Halt   bool   // instruction was OpHalt
}

// Machine is the architectural state of one program execution.
type Machine struct {
	Prog *program.Program
	Regs [isa.NumRegs]uint64
	Mem  *Memory
	PC   uint64

	Halted bool
	Count  uint64 // retired instruction count

	// replay, when non-nil, feeds Step from a pre-captured Trace (see
	// NewReplay) instead of interpreting; replayPos is the next record.
	replay    *Trace
	replayPos int
}

// New creates a machine loaded with prog: data segment installed, PC at the
// entry point, registers cleared.
func New(prog *program.Program) *Machine {
	m := &Machine{Prog: prog, Mem: NewMemory(), PC: prog.Entry}
	// Install the data segment in address order. Memory contents are
	// insensitive to install order today (one write per address), but the
	// sparse page directory's allocation pattern is not, and iterating the
	// map directly would bake Go's randomized order into anything that
	// ever observes it.
	addrs := make([]uint64, 0, len(prog.Data))
	for addr := range prog.Data {
		addrs = append(addrs, addr)
	}
	slices.Sort(addrs)
	for _, addr := range addrs {
		m.Mem.Write(addr, prog.Data[addr])
	}
	return m
}

// Step executes the instruction at the current PC and returns its record.
// Calling Step on a halted machine returns an error.
func (m *Machine) Step() (Retired, error) {
	if m.Halted {
		return Retired{}, fmt.Errorf("fsim: step on halted machine %q at pc=%d", m.Prog.Name, m.PC)
	}
	if t := m.replay; t != nil {
		if m.replayPos < len(t.recs) {
			r := t.recs[m.replayPos]
			m.replayPos++
			m.Count++
			applyRegs(&m.Regs, r.Instr, r.Result)
			if r.Instr.Op.Info().IsStore {
				m.Mem.Write(r.Addr, r.StoreVal)
			}
			m.PC = r.NextPC
			if r.Halt {
				m.Halted = true
			}
			return r, nil
		}
		// Trace exhausted: the architectural state is exactly the
		// capture machine's at the same point, so interpretation
		// continues seamlessly.
		m.replay = nil
	}
	in := m.Prog.Fetch(m.PC)
	r := exec(in, m.PC, regReader(&m.Regs), m.Mem)
	m.Count++
	r.Seq = m.Count
	applyRegs(&m.Regs, in, r.Result)
	if in.Op.Info().IsStore {
		m.Mem.Write(r.Addr, r.StoreVal)
	}
	m.PC = r.NextPC
	if r.Halt {
		m.Halted = true
	}
	return r, nil
}

// Run executes until the machine halts or maxInstrs instructions have
// retired, returning the number retired.
func (m *Machine) Run(maxInstrs uint64) (uint64, error) {
	start := m.Count
	for !m.Halted && m.Count-start < maxInstrs {
		if _, err := m.Step(); err != nil {
			return m.Count - start, err
		}
	}
	return m.Count - start, nil
}

// regReader adapts a register array to the operand-reading function used by
// exec, enforcing the hardwired zero register.
func regReader(regs *[isa.NumRegs]uint64) func(isa.Reg) uint64 {
	return func(r isa.Reg) uint64 {
		if r == isa.ZeroReg {
			return 0
		}
		return regs[r]
	}
}

func applyRegs(regs *[isa.NumRegs]uint64, in isa.Instr, result uint64) {
	if in.Op.Info().HasDest && in.Dest != isa.ZeroReg {
		regs[in.Dest] = result
	}
}

// exec evaluates one instruction at pc with operand values supplied by
// read and memory reads served by mem. It performs no state updates; the
// caller applies register, memory and PC effects from the returned record.
func exec(in isa.Instr, pc uint64, read func(isa.Reg) uint64, mem memReader) Retired {
	oi := in.Op.Info()
	r := Retired{PC: pc, Instr: in, NextPC: pc + 1}
	if oi.UsesSrc1 {
		r.Src1 = read(in.Src1)
	}
	if oi.UsesSrc2 {
		r.Src2 = read(in.Src2)
	}
	switch {
	case oi.IsLoad:
		r.Addr = isa.EffAddr(r.Src1, in.Imm)
		r.Result = mem.Read(r.Addr)
	case oi.IsStore:
		r.Addr = isa.EffAddr(r.Src1, in.Imm)
		r.StoreVal = r.Src2
	case oi.IsBranch:
		r.Taken = isa.EvalBranch(in.Op, r.Src1, r.Src2)
		if r.Taken {
			r.NextPC = isa.CtrlTarget(in.Op, in.Imm, r.Src1, pc)
		}
	case oi.IsJump:
		r.NextPC = isa.CtrlTarget(in.Op, in.Imm, r.Src1, pc)
		if oi.HasDest {
			r.Result = isa.Exec(in.Op, r.Src1, r.Src2, in.Imm, pc)
		}
	case in.Op == isa.OpHalt:
		r.Halt = true
	case oi.HasDest:
		r.Result = isa.Exec(in.Op, r.Src1, r.Src2, in.Imm, pc)
	}
	return r
}

type memReader interface {
	Read(addr uint64) uint64
}
