package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/irb"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/trb"
)

// chaseProgram walks a pointer chain n times through an array far larger
// than the L1 data cache: every load depends on the one before and most
// miss, so the machine spends most cycles waiting with nothing to do.
func chaseProgram(n int64) *program.Program {
	const words, stride = 1 << 15, 1031 // stride coprime to words
	b := program.NewBuilder("chase")
	// Each word holds the byte offset of the next element in the chain.
	base := b.Array(words, func(i int) uint64 { return 8 * uint64((i+stride)%words) })
	b.LoadConst(1, n)
	b.LoadConst(2, int64(base))
	b.LoadConst(5, int64(base))
	b.Label("loop")
	b.EmitImm(isa.OpLoad, 4, 2, 0)
	b.EmitOp(isa.OpAdd, 2, 4, 5)
	b.EmitOp(isa.OpAdd, 3, 3, 4)
	b.EmitImm(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, isa.ZeroReg, "loop")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	return b.MustBuild()
}

// gatherProgram loads eight independent words per iteration from an
// array far larger than the L1 data cache and sums them: the window fills
// with loads whose addresses are known, queued for the two cache ports
// while every other stage waits.
func gatherProgram(n int64) *program.Program {
	const words, stride = 1 << 15, 613
	b := program.NewBuilder("gather")
	base := b.Array(words, func(i int) uint64 { return uint64(i) })
	b.LoadConst(1, n)
	b.LoadConst(2, int64(base))
	b.Label("loop")
	for k := int32(0); k < 8; k++ {
		b.EmitImm(isa.OpLoad, isa.Reg(8+k), 2, k*stride*8)
	}
	for k := isa.Reg(8); k < 16; k++ {
		b.EmitOp(isa.OpAdd, 3, 3, k)
	}
	b.EmitImm(isa.OpAddi, 2, 2, 8*8*stride)
	b.EmitImm(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, isa.ZeroReg, "loop")
	b.Emit(isa.Instr{Op: isa.OpHalt})
	return b.MustBuild()
}

// commitAt is one retirement: the architected record and its cycle.
type commitAt struct {
	cycle uint64
	rec   fsim.Retired
}

// idleOutcome is everything a run reports: the error, the final cycle,
// the core, IRB and TRB statistics and the commit stream with its cycles.
type idleOutcome struct {
	err     string
	cycle   uint64
	stats   Stats
	irb     irb.Stats
	trb     trb.Stats
	commits []commitAt
	skipped uint64
}

// idleRun runs prog on cfg, under an FU fault injector when rate > 0,
// either through Run or through a plain loop of Tick and the same limit
// checks.
func idleRun(t *testing.T, cfg Config, prog *program.Program, rate float64, tick bool) idleOutcome {
	t.Helper()
	c, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	if rate > 0 {
		inj, err := fault.New(fault.Config{Site: fault.FU, Rate: rate, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		c.SetInjector(inj)
	}
	var out idleOutcome
	c.OnCommit = func(rec *fsim.Retired) {
		out.commits = append(out.commits, commitAt{c.cycle, *rec})
	}
	if tick {
		// Tick every cycle, holding each quiet cycle to the contract
		// Run relies on: every cycle up to the next wake source is
		// quiet too, with the same stall counter increments.
		var wake uint64
		var quiet stallCounters
		for !c.done && err == nil {
			before := c.stallCounters()
			c.Tick()
			after := c.stallCounters()
			d := stallCounters{
				after.readyNotIssued - before.readyNotIssued,
				after.ruuFull - before.ruuFull,
				after.lsqFull - before.lsqFull,
				after.fetchQEmpty - before.fetchQEmpty,
			}
			switch {
			case c.cycle < wake && (c.acted || d != quiet):
				t.Fatalf("cycle %d before wake %d: acted=%v, stall increments %+v, the quiet cycle's %+v",
					c.cycle, wake, c.acted, d, quiet)
			case c.cycle >= wake && !c.acted && !c.done:
				wake, quiet = c.nextWake(), d
			}
			err = c.checkLimits()
		}
		if err == nil {
			c.Stats.Cycles = c.cycle
			err = c.abortErr
		}
	} else {
		err = c.Run()
	}
	if err != nil {
		out.err = err.Error()
	}
	out.cycle, out.stats, out.skipped = c.cycle, c.Stats, c.skipped
	if c.reuse != nil {
		out.irb = c.reuse.Stats
	}
	if c.trb != nil {
		out.trb = c.trb.buf.Stats
	}
	return out
}

// compareIdle fails the test unless Run and a plain Tick loop agree on
// every output, and returns the cycles Run skipped.
func compareIdle(t *testing.T, name string, cfg Config, prog *program.Program, rate float64) uint64 {
	t.Helper()
	run := idleRun(t, cfg, prog, rate, false)
	tick := idleRun(t, cfg, prog, rate, true)
	if tick.skipped != 0 {
		t.Fatalf("%s: the Tick loop skipped %d cycles", name, tick.skipped)
	}
	switch {
	case run.err != tick.err:
		t.Errorf("%s: Run error %q, Tick loop %q", name, run.err, tick.err)
	case run.cycle != tick.cycle:
		t.Errorf("%s: Run ended at cycle %d, Tick loop at %d", name, run.cycle, tick.cycle)
	case run.stats != tick.stats:
		t.Errorf("%s: stats differ:\n Run  %+v\n Tick %+v", name, run.stats, tick.stats)
	case run.irb != tick.irb || run.trb != tick.trb:
		t.Errorf("%s: reuse buffer stats differ: IRB %+v vs %+v, TRB %+v vs %+v",
			name, run.irb, tick.irb, run.trb, tick.trb)
	case !reflect.DeepEqual(run.commits, tick.commits):
		t.Errorf("%s: commit streams differ (%d vs %d commits)", name, len(run.commits), len(tick.commits))
	}
	return run.skipped
}

// TestIdleSkipMatchesTick holds Run's idle-cycle skipping to ticking every
// cycle: for every registered mode under the scheduler, reuse-buffer and
// LSQ-size variants, on random programs (with and without FU fault
// injection), a memory-bound pointer chase and a port-bound gather, Run
// and a plain Tick loop must report the same statistics, reuse-buffer
// statistics and commit stream, cycle for cycle. The chase must actually skip cycles, and a MaxCycles limit too
// small for the run must fail with the same error at the same cycle.
//
// One wake source, a functional unit freeing up, is never the only one
// today: a unit stays busy at most until its operation's completion
// event, which wakes the machine anyway. It is kept so the contract does
// not depend on that.
func TestIdleSkipMatchesTick(t *testing.T) {
	variants := []struct {
		name  string
		apply func(*Config)
	}{
		{"base", func(*Config) {}},
		{"decoupled", func(c *Config) { c.Scheduler = Decoupled }},
		{"chaining+both-streams", func(c *Config) { c.IRBChaining = true; c.IRBBothStreams = true }},
		{"name-based+decoupled", func(c *Config) { c.IRBNameBased = true; c.Scheduler = Decoupled }},
		{"clustered", func(c *Config) { c.Clustered = true }},
		{"slow-lookup", func(c *Config) { c.IRB.LookupLat = 6 }},
		{"small-lsq", func(c *Config) { c.LSQSize = 6 }},
	}
	progs := []*program.Program{randomProgram(1), randomProgram(2), randomProgram(3), chaseProgram(120), gatherProgram(30)}
	if testing.Short() || raceEnabled {
		// Every run is single-goroutine: the race detector only slows
		// it, so it gets the short set.
		progs = progs[2:]
	}
	var chaseSkipped uint64
	for _, mi := range Modes() {
		for _, v := range variants {
			cfg := quicken(mi.Base())
			v.apply(&cfg)
			if cfg.Validate() != nil {
				continue
			}
			for _, prog := range progs {
				rates := []float64{0, 2e-3}
				if prog.Name != "random" {
					rates = rates[:1] // fault recovery is the random programs' job
				}
				for _, rate := range rates {
					name := fmt.Sprintf("%s/%s/%s/rate=%g", mi.Mode, v.name, prog.Name, rate)
					n := compareIdle(t, name, cfg, prog, rate)
					if prog.Name == "chase" {
						chaseSkipped += n
					}
				}
			}
		}
	}
	if chaseSkipped == 0 {
		t.Error("Run skipped no cycles on the memory-bound chase")
	}

	// A limit the run cannot meet: both paths stop with the same error
	// at the same cycle, even when the limit falls inside a quiet stretch.
	for _, mi := range Modes() {
		cfg := mi.Base()
		full := idleRun(t, cfg, chaseProgram(50), 0, false)
		for _, limit := range []uint64{full.cycle / 3, full.cycle/2 + 1, full.cycle - 1} {
			cfg.MaxCycles = limit
			name := fmt.Sprintf("%s/MaxCycles=%d", mi.Mode, limit)
			compareIdle(t, name, cfg, chaseProgram(50), 0)
			if got := idleRun(t, cfg, chaseProgram(50), 0, false); got.err == "" || got.cycle != limit+1 {
				t.Errorf("%s: Run stopped at cycle %d with %q, want the MaxCycles error at %d", name, got.cycle, got.err, limit+1)
			}
		}
	}
}
