package sim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/workload"
)

func gzipProfile(t *testing.T) workload.Profile {
	t.Helper()
	p, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	return p
}

func TestRunVerifiedAllModes(t *testing.T) {
	p := gzipProfile(t)
	for _, nc := range HeadlineConfigs() {
		r, err := Run(nc.Name, nc.Cfg, p, Options{Insns: 30_000, Verify: true})
		if err != nil {
			t.Fatalf("%s: %v", nc.Name, err)
		}
		if r.Core.Committed != 30_000 {
			t.Errorf("%s: committed %d, want 30000", nc.Name, r.Core.Committed)
		}
		if r.IPC <= 0 {
			t.Errorf("%s: IPC %v", nc.Name, r.IPC)
		}
		if r.Bench != "gzip" || r.Config != nc.Name {
			t.Errorf("%s: result labels wrong: %+v", nc.Name, r)
		}
	}
}

func TestEqualInstructionBudgets(t *testing.T) {
	// IPC comparisons require identical committed counts across configs.
	p := gzipProfile(t)
	var counts []uint64
	for _, nc := range Fig2Configs()[:3] {
		r, err := Run(nc.Name, nc.Cfg, p, Options{Insns: 25_000})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, r.Core.Committed)
	}
	for _, c := range counts[1:] {
		if c != counts[0] {
			t.Errorf("committed counts differ: %v", counts)
		}
	}
}

func TestIRBStatsPresentOnlyWithIRB(t *testing.T) {
	sieMode, _ := core.SIE.Info()
	dieIRBMode, _ := core.DIEIRB.Info()
	p := gzipProfile(t)
	rs, err := Run("SIE", sieMode.Base(), p, Options{Insns: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if rs.IRB != nil {
		t.Error("SIE result has IRB stats")
	}
	ri, err := Run("DIE-IRB", dieIRBMode.Base(), p, Options{Insns: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if ri.IRB == nil || ri.IRB.Lookups == 0 {
		t.Error("DIE-IRB result missing IRB stats")
	}
	if ri.ReuseRate() <= 0 || ri.PCHitRate() <= 0 {
		t.Errorf("reuse/pc-hit rates: %v / %v", ri.ReuseRate(), ri.PCHitRate())
	}
}

func TestRunWithInjector(t *testing.T) {
	dieMode, _ := core.DIE.Info()
	p := gzipProfile(t)
	inj, err := fault.New(fault.Config{Site: fault.FU, Rate: 1e-3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run("DIE", dieMode.Base(), p, Options{Insns: 50_000, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	if inj.Injected == 0 {
		t.Fatal("injector never fired")
	}
	if r.Core.FaultsDetected == 0 {
		t.Error("no faults detected by check-&-retire")
	}
}

func TestFig2ConfigNames(t *testing.T) {
	cfgs := Fig2Configs()
	if len(cfgs) != 9 {
		t.Fatalf("got %d configs, want 9 (SIE + 8 DIE variants)", len(cfgs))
	}
	if cfgs[0].Name != "SIE" {
		t.Errorf("first config = %s, want SIE", cfgs[0].Name)
	}
	for _, nc := range cfgs[1:] {
		if !strings.HasPrefix(nc.Name, "DIE") {
			t.Errorf("config %s should be a DIE variant", nc.Name)
		}
		if err := nc.Cfg.Validate(); err != nil {
			t.Errorf("%s: %v", nc.Name, err)
		}
	}
	// The doubled variants must actually double the base quantities.
	dieMode, _ := core.DIE.Info()
	base := dieMode.Base()
	twoALU := cfgs[2].Cfg
	if twoALU.RUUSize != base.RUUSize {
		t.Error("2xALU changed RUU size")
	}
	all := cfgs[8].Cfg
	if all.RUUSize != 2*base.RUUSize || all.IssueWidth != 2*base.IssueWidth {
		t.Error("2xALU-2xRUU-2xWidths did not double RUU and widths")
	}
}

func TestSweepConfigGenerators(t *testing.T) {
	if got := len(IRBSizeConfigs([]int{128, 1024})); got != 2 {
		t.Errorf("IRBSizeConfigs: %d", got)
	}
	for _, nc := range ConflictConfigs() {
		if err := nc.Cfg.Validate(); err != nil {
			t.Errorf("%s: %v", nc.Name, err)
		}
	}
	for _, nc := range PortConfigs([]int{1, 4}) {
		if err := nc.Cfg.Validate(); err != nil {
			t.Errorf("%s: %v", nc.Name, err)
		}
	}
	pc := PortConfigs([]int{4})[0].Cfg
	if pc.IRB.ReadPorts != 4 || pc.IRB.WritePorts != 2 || pc.IRB.RWPorts != 2 {
		t.Errorf("PortConfigs(4) = %+v, want the paper's 4R/2W/2RW", pc.IRB)
	}
}

func TestUnknownBenchmarkError(t *testing.T) {
	sieMode, _ := core.SIE.Info()
	bad := workload.Profile{} // invalid: fails generation
	if _, err := Run("SIE", sieMode.Base(), bad, Options{Insns: 1000}); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestFastForwardSkipsWarmup(t *testing.T) {
	sieMode, _ := core.SIE.Info()
	p := gzipProfile(t)
	plain, err := Run("SIE", sieMode.Base(), p, Options{Insns: 30_000, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	ffwd, err := Run("SIE", sieMode.Base(), p, Options{Insns: 30_000, Verify: true, FastForward: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	// Both runs commit the same budget, but the fast-forwarded one
	// measures a different (post-warmup) region of the execution.
	if ffwd.Core.Committed != plain.Core.Committed {
		t.Errorf("committed %d vs %d", ffwd.Core.Committed, plain.Core.Committed)
	}
	if ffwd.Core.Cycles == plain.Core.Cycles {
		t.Error("fast-forwarded run measured an identical region (suspicious)")
	}
}

func TestFastForwardDeterministic(t *testing.T) {
	sieMode, _ := core.SIE.Info()
	p := gzipProfile(t)
	opts := Options{Insns: 20_000, FastForward: 30_000}
	a, err := Run("SIE", sieMode.Base(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("SIE", sieMode.Base(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Core != b.Core {
		t.Error("fast-forwarded runs are not deterministic")
	}
}

func TestPreflightRejectsBrokenProgram(t *testing.T) {
	dieIRBMode, _ := core.DIEIRB.Info()
	// r2 is read but never written: the analysis preflight must reject
	// the program with a structured diagnostic before cycle 0 — no panic.
	b := program.NewBuilder("broken")
	b.EmitOp(isa.OpAdd, 1, 2, isa.ZeroReg)
	b.Emit(isa.Instr{Op: isa.OpHalt})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run("DIE-IRB", dieIRBMode.Base(), workload.Profile{}, Options{
		Insns: 10_000, Program: prog,
	})
	if err == nil {
		t.Fatal("Run accepted an ill-formed program")
	}
	var d *analysis.Diagnostic
	if !errors.As(err, &d) {
		t.Fatalf("error %v does not carry *analysis.Diagnostic", err)
	}
	if d.Kind != analysis.KindReadBeforeWrite {
		t.Errorf("kind = %s, want %s", d.Kind, analysis.KindReadBeforeWrite)
	}
	if !strings.Contains(err.Error(), "preflight") {
		t.Errorf("error %q does not mention the preflight", err)
	}
}

func TestRunProgramOverride(t *testing.T) {
	dieIRBMode, _ := core.DIEIRB.Info()
	// A hand-written kernel runs verified through the full timing core; it
	// halts well before the budget, which Program mode permits.
	prog, _ := workload.KernelHistogram(512)
	r, err := Run("DIE-IRB", dieIRBMode.Base(), workload.Profile{}, Options{
		Insns: 200_000, Verify: true, Program: prog,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Bench != "histogram" {
		t.Errorf("bench = %q, want histogram", r.Bench)
	}
	if r.Core.Committed == 0 || r.IPC <= 0 {
		t.Errorf("kernel did not execute: %+v", r.Core)
	}
}

func TestProgramForMatchesRunContext(t *testing.T) {
	// The program ProgramFor hands static tooling must be the exact
	// program a run would execute: same options, same bytes.
	p := gzipProfile(t)
	opts := Options{Insns: 30_000, Seed: 99}
	a, err := ProgramFor(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := ProgramFor(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Code) != len(b2.Code) {
		t.Fatalf("ProgramFor not deterministic: %d vs %d instrs", len(a.Code), len(b2.Code))
	}
	for i := range a.Code {
		if a.Code[i] != b2.Code[i] {
			t.Fatalf("ProgramFor not deterministic at pc %d", i)
		}
	}
	unseeded, err := ProgramFor(p, Options{Insns: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	same := len(unseeded.Code) == len(a.Code)
	if same {
		same = false
		for i := range a.Code {
			if a.Code[i] != unseeded.Code[i] {
				same = true // any difference proves the seed was applied
				break
			}
		}
		if !same {
			t.Error("Seed option did not perturb the generated program")
		}
	}
}
