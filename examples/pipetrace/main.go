// Pipeline tracing: watch the DIE-IRB machinery work at cycle granularity.
// The example assembles a tiny loop whose body is loop-invariant, runs it
// on the DIE-IRB core with a TextTracer attached, and prints an annotated
// window of the steady state: primary copies (P) issuing to ALUs, their
// duplicates (D) completing via "reuse" events without ever issuing, and
// pairs committing together.
//
//	go run ./examples/pipetrace
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/program"
)

func main() {
	b := program.NewBuilder("tracedemo")
	b.LoadConst(1, 400) // iteration counter
	b.LoadConst(5, 3)   // invariant operand
	b.Label("loop")
	b.EmitOp(isa.OpXor, 3, 5, 5) // invariant: reuses every iteration
	b.EmitOp(isa.OpAnd, 4, 5, 5) // invariant: reuses every iteration
	b.EmitOp(isa.OpAdd, 2, 2, 5) // accumulator: never reuses
	b.EmitImm(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, isa.ZeroReg, "loop")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	prog := b.MustBuild()

	dieIRBMode, _ := core.DIEIRB.Info()
	cfg := dieIRBMode.Base()
	cfg.MaxInsns = 2000
	c, err := core.New(cfg, prog)
	if err != nil {
		log.Fatal(err)
	}
	// Trace a steady-state window: by cycle 400 the IRB is warm and the
	// invariant duplicates reuse every iteration.
	c.SetTracer(&core.TextTracer{W: &window{from: 400, to: 410}})
	if err := c.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsummary: %d instructions in %d cycles (IPC %.2f); "+
		"duplicate stream: %d reuse hits, %d ALU executions\n",
		c.Stats.Committed, c.Stats.Cycles, c.Stats.IPC(),
		c.Stats.IRBReuseHits, c.Stats.DupFUExec)
	fmt.Println(`
Reading the trace: "P" lines are primary-stream copies, "D" duplicates.
The invariant xor/and duplicates show "reuse" events — they never issue
to a functional unit — while the addi/add/bne duplicates issue normally.
Each architected instruction commits once, after both copies agree.`)
}

// window forwards trace lines whose leading cycle falls in [from, to].
type window struct {
	from, to int
}

func (w *window) Write(p []byte) (int, error) {
	var cyc int
	if _, err := fmt.Sscan(string(p), &cyc); err == nil && cyc >= w.from && cyc <= w.to {
		os.Stdout.Write(p)
	}
	return len(p), nil
}
