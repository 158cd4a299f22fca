package core

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/isa"
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
	c.acted = false
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

// checkReadyList verifies the ready-set invariants against the RUU: every
// uWaiting uop whose waitCount is zero is in exactly one place — its own
// (stream, FU class) list if it is selectable this cycle, the pending list
// if it is not — every list is in strictly ascending seq order, and the
// test list holds exactly the listed uops whose IRB reuse test is due to
// run. where is scratch space reused across calls.
func checkReadyList(t *testing.T, c *Core, where map[*uop]string) {
	t.Helper()
	clear(where)
	put := func(u *uop, name string) {
		if prev, dup := where[u]; dup {
			t.Fatalf("cycle %d: seq %d is in both %s and %s", c.cycle, u.seq, prev, name)
		}
		where[u] = name
	}
	sorted := func(l []*uop, name string) {
		for k := 1; k < len(l); k++ {
			if l[k-1].seq >= l[k].seq {
				t.Fatalf("cycle %d: %s out of order at %d: seq %d then %d", c.cycle, name, k, l[k-1].seq, l[k].seq)
			}
		}
	}
	for s := range c.ready.lists {
		for cl, l := range c.ready.lists[s] {
			if len(l) == 0 {
				continue
			}
			name := listNames[s][cl]
			sorted(l, name)
			for _, u := range l {
				if stream(u) != s || int(u.rec.Instr.Op.Info().Class) != cl {
					t.Fatalf("cycle %d: seq %d (dup=%v %s) filed in %s", c.cycle, u.seq, u.dup, u.rec.Instr.Op, name)
				}
				if u.readyAt+c.selDelay > c.cycle {
					t.Fatalf("cycle %d: %s holds seq %d, not selectable until %d", c.cycle, name, u.seq, u.readyAt+c.selDelay)
				}
				put(u, name)
			}
		}
	}
	// During a REPLAY stall no stage runs, so nothing is promoted.
	stalled := c.cycle <= c.stallUntil
	for _, u := range c.ready.pending {
		if u.readyAt+c.selDelay <= c.cycle && !stalled {
			t.Fatalf("cycle %d: pending holds seq %d, selectable since %d", c.cycle, u.seq, u.readyAt+c.selDelay)
		}
		put(u, "pending")
	}
	n := 0
	for i := 0; i < c.ruu.len(); i++ {
		u := c.ruu.at(i)
		if u.state != uWaiting || u.waitCount != 0 {
			continue
		}
		n++
		w, ok := where[u]
		if !ok {
			t.Fatalf("cycle %d: selectable RUU uop seq %d missing from the ready set", c.cycle, u.seq)
		}
		if u.irbPCHit && !u.irbTested && w != "pending" {
			where[u] = "untested"
		}
	}
	if n != len(where) {
		t.Fatalf("cycle %d: ready set has %d entries, the RUU only %d selectable uops", c.cycle, len(where), n)
	}
	sorted(c.ready.tests, "test list")
	for _, u := range c.ready.tests {
		if where[u] != "untested" {
			t.Fatalf("cycle %d: test list holds seq %d (tested=%v, in %s)", c.cycle, u.seq, u.irbTested, where[u])
		}
		where[u] = "tested"
	}
	for u, w := range where {
		if w == "untested" {
			t.Fatalf("cycle %d: seq %d awaits its reuse test but is not in the test list", c.cycle, u.seq)
		}
	}
}

// listNames names the (stream, class) lists in checkReadyList's messages.
var listNames = func() (n [2][isa.NumFUClasses]string) {
	for s := range n {
		for cl := range n[s] {
			n[s][cl] = fmt.Sprintf("list[stream %d][%s]", s, isa.FUClass(cl))
		}
	}
	return n
}()

// readyRun hand-ticks prog on cfg under an FU fault injector, checking the
// ready-set invariants after every cycle. It returns the core and how
// many uops were selected in the same cycle they entered the ready set
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
	where := make(map[*uop]string)
	merged := 0
	for !c.done && c.cycle < cfg.MaxCycles {
		clear(before)
		tr.selected = tr.selected[:0]
		tickByHand(c, func() {
			for _, u := range c.ready.pending {
				before[u.seq] = true
			}
			for s := range c.ready.lists {
				for _, l := range c.ready.lists[s] {
					for _, u := range l {
						before[u.seq] = true
					}
				}
			}
		})
		for _, seq := range tr.selected {
			if !before[seq] {
				merged++
			}
		}
		checkReadyList(t, c, where)
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

// TestReadyListInvariants holds the ready set to its definition after
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
