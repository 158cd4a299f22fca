package sim_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ExampleRun simulates one benchmark on the paper's proposed machine with
// oracle verification enabled.
func ExampleRun() {
	profile, _ := workload.ByName("bzip2")
	dieIRBMode, _ := core.DIEIRB.Info() // the mode registry's descriptor
	r, err := sim.Run("DIE-IRB", dieIRBMode.Base(), profile, sim.Options{
		Insns:  50_000,
		Verify: true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("bench=%s committed=%d reuse>0=%v\n",
		r.Bench, r.Core.Committed, r.ReuseRate() > 0)
	// Output: bench=bzip2 committed=50000 reuse>0=true
}
