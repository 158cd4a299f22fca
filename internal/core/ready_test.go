package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/program"
)

// selectionTracer records the seqs selectIssue acts on in the current
// cycle: issued to a functional unit or completed by a reuse hit.
type selectionTracer struct {
	countingTracer
	selected []uint64
}

func (s *selectionTracer) Issue(_, seq uint64, _ bool, _ *fsim.Retired) {
	s.selected = append(s.selected, seq)
}

func (s *selectionTracer) ReuseHit(_, seq uint64, _ *fsim.Retired) {
	s.selected = append(s.selected, seq)
}

// tickByHand runs one cycle with the same stage sequence as Tick, calling
// beforeSelect between memory issue and select/issue.
func tickByHand(c *Core, beforeSelect func()) {
	c.cycle++
	if c.cycle <= c.stallUntil {
		return
	}
	c.commit()
	c.writeback()
	c.memIssue()
	beforeSelect()
	c.selectIssue()
	c.dispatch()
	c.fetch()
}

// checkReadyList verifies the ready-list invariants against the RUU: the
// list holds exactly the uWaiting uops whose waitCount is zero, each once,
// in strictly ascending seq order.
func checkReadyList(t *testing.T, c *Core) {
	t.Helper()
	for k, u := range c.ready {
		if u.waitCount != 0 {
			t.Fatalf("cycle %d: ready[%d] (seq %d) has waitCount %d", c.cycle, k, u.seq, u.waitCount)
		}
		if k > 0 && c.ready[k-1].seq >= u.seq {
			t.Fatalf("cycle %d: ready list out of order at %d: seq %d then %d",
				c.cycle, k, c.ready[k-1].seq, u.seq)
		}
	}
	k := 0
	for i := 0; i < c.ruu.len(); i++ {
		u := c.ruu.at(i)
		if u.state != uWaiting || u.waitCount != 0 {
			continue
		}
		if k >= len(c.ready) || c.ready[k] != u {
			t.Fatalf("cycle %d: selectable RUU uop seq %d missing from the ready list (%d entries)",
				c.cycle, u.seq, len(c.ready))
		}
		k++
	}
	if k != len(c.ready) {
		t.Fatalf("cycle %d: ready list has %d entries, the RUU only %d selectable uops",
			c.cycle, len(c.ready), k)
	}
}

// readyRun hand-ticks prog on cfg under an FU fault injector, checking the
// ready-list invariants after every cycle. It returns the core and how
// many uops were selected in the same cycle they entered the ready list
// during select (the chaining merge).
func readyRun(t *testing.T, cfg Config, prog *program.Program, seed uint64) (*Core, int) {
	t.Helper()
	c, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(fault.Config{Site: fault.FU, Rate: 5e-3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	c.SetInjector(inj)
	tr := &selectionTracer{}
	c.SetTracer(tr)
	before := make(map[uint64]bool)
	merged := 0
	for !c.done && c.cycle < cfg.MaxCycles {
		clear(before)
		tr.selected = tr.selected[:0]
		tickByHand(c, func() {
			for _, u := range c.ready {
				before[u.seq] = true
			}
		})
		for _, seq := range tr.selected {
			if !before[seq] {
				merged++
			}
		}
		checkReadyList(t, c)
	}
	if !c.done {
		t.Fatalf("no completion within %d cycles", cfg.MaxCycles)
	}
	if c.abortErr != nil {
		t.Fatal(c.abortErr)
	}
	// The hand-ticked run must be the run Tick performs.
	ref, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	refInj, _ := fault.New(fault.Config{Site: fault.FU, Rate: 5e-3, Seed: seed})
	ref.SetInjector(refInj)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	c.Stats.Cycles = c.cycle
	if c.Stats != ref.Stats {
		t.Fatalf("hand-ticked stats differ from Run:\n got %+v\nwant %+v", c.Stats, ref.Stats)
	}
	return c, merged
}

// TestReadyListInvariants holds the ready list to its definition after
// every cycle of every mode, with and without chaining and the scheduler
// variants, on the random programs, under FU fault injection so that
// branch recovery (recover) and fault recovery (recoverFault) both rebuild
// or clear it. It also pins the same-cycle chaining merge: with
// IRBChaining under the data-capture scheduler, a reuse hit that has
// consumers selects some of them in the cycle they are woken; without
// chaining, or under the decoupled scheduler, none ever is.
func TestReadyListInvariants(t *testing.T) {
	variants := []struct {
		name     string
		apply    func(*Config)
		chaining bool
	}{
		{"base", func(*Config) {}, false},
		{"chaining", func(c *Config) { c.IRBChaining = true }, true},
		{"both-streams+chaining", func(c *Config) { c.IRBBothStreams = true; c.IRBChaining = true }, true},
		{"chaining+decoupled", func(c *Config) { c.IRBChaining = true; c.Scheduler = Decoupled }, false},
		{"clustered+both-streams+chaining", func(c *Config) {
			c.Clustered = true
			c.IRBBothStreams = true
			c.IRBChaining = true
		}, true},
	}
	var recoveries, mispredicts uint64
	for _, mi := range Modes() {
		for _, v := range variants {
			cfg := quicken(mi.Base())
			v.apply(&cfg)
			if cfg.Validate() != nil {
				continue
			}
			merged := 0
			for seed := uint64(1); seed <= 4; seed++ {
				c, m := readyRun(t, cfg, randomProgram(seed), seed)
				merged += m
				recoveries += c.Stats.FaultRecoveries
				mispredicts += c.Stats.Mispredicts
			}
			// Only a reuse hit with consumers can wake anything: a
			// primary's (IRBBothStreams) or SIE-IRB's single stream's.
			// Duplicates are never producers.
			caps := cfg.Mode.Caps()
			wakes := caps.UsesIRB && (caps.IRBAllStreams || cfg.IRBBothStreams)
			switch {
			case v.chaining && wakes && merged == 0:
				t.Errorf("%s/%s: the same-cycle chaining merge never fired", mi.Mode, v.name)
			case !v.chaining && merged != 0:
				t.Errorf("%s/%s: %d uops selected in the cycle they were woken without chaining",
					mi.Mode, v.name, merged)
			}
		}
	}
	if recoveries == 0 || mispredicts == 0 {
		t.Errorf("recoverFault ran %d times and recover %d times; both must run", recoveries, mispredicts)
	}
}
