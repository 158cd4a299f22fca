package runner_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// campaignJobs builds one fault-campaign batch group per registered mode:
// the mode's baseline config on gzip with a fault-free lane plus one lane
// per seed. Injectors are consumed state, so every Run gets its own slice
// from a fresh call. The returned injectors parallel the jobs (nil for
// fault-free lanes).
func campaignJobs(t *testing.T, insns uint64, seeds []uint64) ([]runner.Job, []*fault.Injector) {
	t.Helper()
	p, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	var jobs []runner.Job
	var injs []*fault.Injector
	for _, mi := range core.Modes() {
		jobs = append(jobs, runner.Job{
			Name: fmt.Sprintf("%s/clean", mi.Mode), Config: mi.Base(), Profile: p,
			Opts: sim.Options{Insns: insns, Verify: true},
		})
		injs = append(injs, nil)
		for _, seed := range seeds {
			inj, err := fault.New(fault.Config{Site: fault.FU, Rate: 1e-3, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, runner.Job{
				Name: fmt.Sprintf("%s/fu-s%d", mi.Mode, seed), Config: mi.Base(), Profile: p,
				Opts: sim.Options{Insns: insns, Verify: true, Injector: inj},
			})
			injs = append(injs, inj)
		}
	}
	if err := runner.AttachTraces(jobs); err != nil {
		t.Fatal(err)
	}
	return jobs, injs
}

// TestBatchedMatchesScalarGoldenGrid is the runner-level golden-grid
// differential (the CI batch-smoke gate): a campaign grid over every
// registered mode, run once through the batch planner and once with
// NoBatch, must agree outcome for outcome — results, errors, and each
// lane's injector fault count, which its result's FaultsInjected reports.
func TestBatchedMatchesScalarGoldenGrid(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	bJobs, bInjs := campaignJobs(t, 8_000, seeds)
	sJobs, sInjs := campaignJobs(t, 8_000, seeds)

	batched, err := runner.Run(context.Background(), bJobs, runner.Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("batched sweep failed: %v", err)
	}
	scalar, err := runner.Run(context.Background(), sJobs, runner.Options{Parallelism: 1, NoBatch: true})
	if err != nil {
		t.Fatalf("scalar sweep failed: %v", err)
	}
	if len(batched) != len(bJobs) || len(scalar) != len(sJobs) {
		t.Fatalf("outcome counts %d/%d, want %d", len(batched), len(scalar), len(bJobs))
	}
	var injected uint64
	for i := range bJobs {
		if batched[i].Err != nil || scalar[i].Err != nil {
			t.Errorf("cell %s: errors batched=%v scalar=%v", bJobs[i].Name, batched[i].Err, scalar[i].Err)
			continue
		}
		if !reflect.DeepEqual(batched[i].Result, scalar[i].Result) {
			t.Errorf("cell %s: batched and scalar results differ:\nbatched: %+v\nscalar:  %+v",
				bJobs[i].Name, batched[i].Result, scalar[i].Result)
		}
		if bInjs[i] != nil && bInjs[i].Injected != sInjs[i].Injected {
			t.Errorf("cell %s: injector fired %d faults batched, %d scalar",
				bJobs[i].Name, bInjs[i].Injected, sInjs[i].Injected)
		}
		if bInjs[i] != nil {
			injected += bInjs[i].Injected
			if got := batched[i].Result.Core.FaultsInjected; got != bInjs[i].Injected {
				t.Errorf("cell %s: FaultsInjected = %d, injector applied %d",
					bJobs[i].Name, got, bInjs[i].Injected)
			}
		}
	}
	if injected == 0 {
		t.Error("the campaign injected no faults; FaultsInjected went unchecked")
	}
}

// TestBatchedSerialParallelEquivalence extends the runner's
// parallel-correctness anchor to batch groups: a campaign grid run by one
// worker and by eight must produce identical outcomes cell by cell.
func TestBatchedSerialParallelEquivalence(t *testing.T) {
	seeds := []uint64{4, 5, 6, 7}
	serialJobs, _ := campaignJobs(t, 6_000, seeds)
	parallelJobs, _ := campaignJobs(t, 6_000, seeds)

	serial, err := runner.Run(context.Background(), serialJobs, runner.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runner.Run(context.Background(), parallelJobs, runner.Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serialJobs {
		if !reflect.DeepEqual(serial[i].Result, parallel[i].Result) {
			t.Errorf("cell %d (%s): -j1 and -j8 batched results differ", i, serialJobs[i].Name)
		}
	}
}

// stuckProgram builds the bounded loop whose add instruction a Persistent
// injector pins, and returns the program plus that instruction's PC.
func stuckProgram(t *testing.T) (*program.Program, uint64) {
	t.Helper()
	b := program.NewBuilder("stuck")
	b.LoadConst(1, 1_000_000)
	b.LoadConst(2, 0)
	b.Label("loop")
	b.EmitOp(isa.OpAdd, 2, 2, 1)
	b.EmitImm(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, isa.ZeroReg, "loop")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	prog := b.MustBuild()
	for i, in := range prog.Code {
		if in.Op == isa.OpAdd && in.Dest == 2 {
			return prog, uint64(i)
		}
	}
	t.Fatal("stuck program has no add instruction")
	return nil, 0
}

// TestBatchLaneEarlyExit: one lane of a batch group carries a stuck-at
// fault that escalates to an unrecoverable error on its scalar re-run. The
// failure must stay confined to that lane — every sibling's outcome must
// be bit-identical to a solo scalar run of the same cell.
func TestBatchLaneEarlyExit(t *testing.T) {
	dieMode, _ := core.DIE.Info()
	p, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	prog, pc := stuckProgram(t)
	mk := func() []runner.Job {
		opts := sim.Options{Insns: 20_000, Program: prog}
		jobs := []runner.Job{
			{Name: "stuck-lane", Config: dieMode.Base(), Profile: p, Opts: opts},
			{Name: "clean-lane", Config: dieMode.Base(), Profile: p, Opts: opts},
		}
		jobs[0].Opts.Injector = &fault.Persistent{Site: fault.FU, PC: pc, Bit: 7}
		for _, seed := range []uint64{8, 9} {
			inj, err := fault.New(fault.Config{Site: fault.FU, Rate: 1e-3, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			j := runner.Job{Name: fmt.Sprintf("fu-s%d", seed), Config: dieMode.Base(), Profile: p, Opts: opts}
			j.Opts.Injector = inj
			jobs = append(jobs, j)
		}
		return jobs
	}

	jobs := mk()
	outs, err := runner.Run(context.Background(), jobs, runner.Options{Parallelism: 1})
	if err == nil {
		t.Fatal("stuck lane's escalation did not surface in the sweep error")
	}
	var uf *core.UnrecoverableFaultError
	if !errors.As(outs[0].Err, &uf) {
		t.Fatalf("stuck lane error = %v, want *core.UnrecoverableFaultError", outs[0].Err)
	}
	if uf.PC != pc {
		t.Errorf("escalated PC = %d, want %d", uf.PC, pc)
	}

	solo := mk()
	for i := 1; i < len(solo); i++ {
		ref, rerr := runner.Run(context.Background(),
			[]runner.Job{solo[i]}, runner.Options{Parallelism: 1, NoBatch: true})
		if rerr != nil {
			t.Fatalf("solo run of %s failed: %v", solo[i].Name, rerr)
		}
		if outs[i].Err != nil {
			t.Errorf("sibling %s failed alongside the stuck lane: %v", jobs[i].Name, outs[i].Err)
			continue
		}
		if !reflect.DeepEqual(outs[i].Result, ref[0].Result) {
			t.Errorf("sibling %s: batched-with-stuck-lane result differs from its solo run", jobs[i].Name)
		}
	}
}
