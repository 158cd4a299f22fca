// ALU bandwidth exploration: the paper's motivating observation is that a
// dual-execution core is starved for ALUs, and that adding ALUs is the
// most effective (but complexity-prohibitive) fix. This example sweeps the
// integer ALU count on an ALU-hungry workload and shows where DIE's demand
// saturates each machine — and how close DIE-IRB gets to the doubled-ALU
// machine without adding a single ALU.
//
//	go run ./examples/alusweep
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	profile, ok := workload.ByName("gzip")
	if !ok {
		log.Fatal("gzip profile missing")
	}
	opts := sim.Options{Insns: 150_000}
	// Machines resolve through the mode registry: each descriptor's Base
	// builder returns the paper's Section 2.2 baseline in that mode.
	sieMode, _ := core.SIE.Info()
	dieMode, _ := core.DIE.Info()
	dieIRBMode, _ := core.DIEIRB.Info()

	fmt.Println("int ALUs   SIE IPC   DIE IPC   DIE loss")
	for _, alus := range []int{2, 3, 4, 6, 8} {
		sie := sieMode.Base()
		sie.FUs[isa.FUIntALU] = alus
		die := sie
		die.Mode = core.DIE
		rs, err := sim.Run("SIE", sie, profile, opts)
		if err != nil {
			log.Fatal(err)
		}
		rd, err := sim.Run("DIE", die, profile, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d   %7.3f   %7.3f   %7.1f%%\n",
			alus, rs.IPC, rd.IPC, 100*(rs.IPC-rd.IPC)/rs.IPC)
	}

	// The punchline: DIE-IRB at 4 ALUs vs DIE at 8 ALUs.
	irb, err := sim.Run("DIE-IRB", dieIRBMode.Base(), profile, opts)
	if err != nil {
		log.Fatal(err)
	}
	die8 := dieMode.Base().WithDoubledALUs()
	r8, err := sim.Run("DIE-2xALU", die8, profile, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDIE-IRB with 4 ALUs reaches IPC %.3f; doubling to 8 ALUs reaches %.3f.\n",
		irb.IPC, r8.IPC)
	fmt.Printf("The IRB supplies %.0f%% of the duplicate stream without touching the\n",
		100*irb.ReuseRate())
	fmt.Println("issue logic; extra ALUs would grow the wakeup/select critical path.")
}
