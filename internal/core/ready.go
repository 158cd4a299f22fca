package core

import (
	"math/bits"

	"repro/internal/isa"
)

// readySet is the issue window's selectable state: every uWaiting uop
// whose producers have all completed (waitCount == 0) is in exactly one
// of its two parts.
//
//   - lists holds the uops that are selectable this cycle
//     (readyAt+selDelay <= cycle), one age-ordered list per (stream,
//     FU class): stream 0 is the primaries, stream 1 every shadow copy.
//     Select merges a stream's lists by age, so it visits a uop only to
//     issue it or to find its class out of units.
//   - pending holds the uops woken too recently to select (unordered);
//     promote moves them into lists when their cycle comes.
//
// tests is an age-ordered side list over lists: the uops with an IRB PC
// hit whose reuse test has not run yet. Select's first pass merges it in
// so each test runs once, at the uop's age position, without walking the
// duplicates it does not issue.
type readySet struct {
	lists   [2][isa.NumFUClasses][]*uop
	tests   []*uop
	pending []*uop
}

// reset empties every list, keeping the backing arrays.
func (r *readySet) reset() {
	for s := range r.lists {
		for cl := range r.lists[s] {
			r.lists[s][cl] = r.lists[s][cl][:0]
		}
	}
	r.tests = r.tests[:0]
	r.pending = r.pending[:0]
}

// release clears every reference the backing arrays hold, including past
// their lengths, and returns the set emptied for the scratch pool.
func (r *readySet) release() readySet {
	for s := range r.lists {
		for _, l := range r.lists[s] {
			clear(l[:cap(l)])
		}
	}
	clear(r.tests[:cap(r.tests)])
	clear(r.pending[:cap(r.pending)])
	r.reset()
	return *r
}

// stream returns u's list index: 0 for a primary, 1 for a shadow copy.
func stream(u *uop) int {
	if u.dup {
		return 1
	}
	return 0
}

// insertBySeq inserts u into the age-ordered list l. Wakeups mostly
// concern young uops, so the insertion walks from the tail; a uop woken
// during select is younger than the reuse hit that woke it and so lands
// past every cursor of the pass under way.
//
//lint:hotpath
func insertBySeq(l []*uop, u *uop) []*uop {
	l = append(l, u)
	i := len(l) - 1
	for ; i > 0 && l[i-1].seq > u.seq; i-- {
		l[i] = l[i-1]
	}
	l[i] = u
	return l
}

// removeBySeq deletes u from the age-ordered list l, searching at and
// after position from.
//
//lint:hotpath
func removeBySeq(l []*uop, from int, u *uop) []*uop {
	lo, hi := from, len(l)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if l[m].seq < u.seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(l) || l[lo] != u {
		throw("core: uop missing from its ready list")
	}
	return append(l[:lo], l[lo+1:]...)
}

// makeReady files u, whose last pending operand has just been produced
// (or which dispatched with none), into the ready set: straight into its
// selection lists when it is selectable this cycle, otherwise into
// pending.
//
//lint:hotpath
func (c *Core) makeReady(u *uop) {
	if u.readyAt+c.selDelay > c.cycle {
		c.ready.pending = append(c.ready.pending, u)
		return
	}
	c.enlist(u)
}

// enlist adds a selectable uop to its (stream, class) list and, if its
// reuse test is still to run, to the test list.
//
//lint:hotpath
func (c *Core) enlist(u *uop) {
	l := &c.ready.lists[stream(u)][u.rec.Instr.Op.Info().Class]
	*l = insertBySeq(*l, u)
	if u.irbPCHit && !u.irbTested {
		c.ready.tests = insertBySeq(c.ready.tests, u)
	}
}

// promote moves the pending uops that became selectable this cycle into
// their lists. It does not count as acting (see Core.acted): a cycle that
// only promotes selects exactly as the cycles after it would.
//
//lint:hotpath
func (c *Core) promote() {
	p := c.ready.pending
	w := 0
	for _, u := range p {
		if u.readyAt+c.selDelay > c.cycle {
			p[w] = u
			w++
			continue
		}
		c.enlist(u)
	}
	c.ready.pending = p[:w]
}

// rebuildReady refills the ready set from the surviving window after a
// squash. The RUU is in age order, so every list is rebuilt sorted.
func (c *Core) rebuildReady() {
	c.ready.reset()
	for i := 0; i < c.ruu.len(); i++ {
		if u := c.ruu.at(i); u.state == uWaiting && u.waitCount == 0 {
			c.makeReady(u)
		}
	}
}

// selectPass runs one selection pass over stream s (0: primaries, 1:
// shadow copies) with the given issue slots. It is an age-ordered merge
// of the stream's class lists — and, in the first pass, of the test list
// — that stops taking from a class at its first failed functional unit
// allocation (units only get busier within a cycle, so every younger uop
// of the class would fail too) and stops issuing when the slots run out.
// The uops it never reached are ready but not issued, and are counted in
// one addition without being visited. It returns the slots left and
// whether a reuse hit recovered from a misprediction, which ends the
// cycle's selection.
//
//lint:hotpath
func (c *Core) selectPass(s, slots int) (int, bool) {
	lists := &c.ready.lists[s]
	var pos [isa.NumFUClasses]int // next unvisited entry per class
	var full uint8                // classes out of functional units
	// live holds the classes with an unvisited entry that may issue.
	live := func() uint8 {
		var m uint8
		for cl := range lists {
			if pos[cl] < len(lists[cl]) {
				m |= 1 << cl
			}
		}
		return m &^ full
	}
	tests := c.ready.tests
	if s != 0 {
		tests = nil // reuse tests run in the first pass only
	}
	ti, tw := 0, 0 // next test candidate; tests kept for a later cycle
	heads := live()
	for {
		// The oldest class head that may still issue.
		var cu *uop
		ccl := 0
		if slots > 0 {
			for m := heads; m != 0; m &= m - 1 {
				cl := bits.TrailingZeros8(m)
				if u := lists[cl][pos[cl]]; cu == nil || u.seq < cu.seq {
					cu, ccl = u, cl
				}
			}
		}
		keep := false // cu is a test candidate whose lookup data is not back yet
		if ti < len(tests) && (cu == nil || tests[ti].seq <= cu.seq) {
			tu := tests[ti]
			ti++
			switch {
			case c.cycle < tu.irbReady:
				if tu != cu {
					tests[tw] = tu
					tw++
					continue
				}
				keep = true
			default:
				// The reuse test is overlapped with wakeup: it takes
				// neither an issue slot nor a functional unit.
				c.acted = true
				tu.irbTested = true
				if c.reuseTest(tu) {
					tu.reuseHit = true
					c.Stats.IRBReuseHits++
					if c.tracer != nil {
						c.tracer.ReuseHit(c.cycle, tu.seq, &tu.rec)
					}
					tu.outSig = irbOutSig(&tu.rec, tu.irbEntry)
					if tu == cu {
						pos[ccl]++
					} else {
						ts, tcl := stream(tu), tu.rec.Instr.Op.Info().Class
						from := 0
						if ts == s {
							from = pos[tcl]
						}
						c.ready.lists[ts][tcl] = removeBySeq(c.ready.lists[ts][tcl], from, tu)
					}
					if tu.mispred && !tu.wrongPath {
						// Recovery rebuilds the ready set and ends
						// selection: only the uops older than the
						// hit were passed over this cycle.
						for cl := range lists {
							for _, u := range lists[cl][pos[cl]:] {
								if u.seq > tu.seq {
									break
								}
								c.Stats.ReadyNotIssued++
							}
						}
					}
					if c.completeUop(tu) {
						return 0, true
					}
					// The hit may have woken uops into the lists.
					tests = c.ready.tests
					heads = live()
					continue
				}
				c.Stats.IRBReuseMiss++
				if tu != cu {
					continue
				}
			}
		} else if cu == nil {
			break
		}
		if !c.issue(cu, ccl) {
			full |= 1 << ccl
			heads &^= 1 << ccl
			if keep {
				tests[tw] = cu
				tw++
			}
			continue
		}
		if pos[ccl]++; pos[ccl] == len(lists[ccl]) {
			heads &^= 1 << ccl
		}
		slots--
		if s != 0 && cu.irbPCHit && !cu.irbTested {
			// A shadow copy issued before its lookup data arrived; its
			// test never runs.
			c.ready.tests = removeBySeq(c.ready.tests, 0, cu)
		}
	}
	if s == 0 {
		c.ready.tests = tests[:tw]
	}
	for cl := range lists {
		l := lists[cl]
		c.Stats.ReadyNotIssued += uint64(len(l) - pos[cl])
		if pos[cl] > 0 {
			lists[cl] = l[:copy(l, l[pos[cl]:])]
		}
	}
	return slots, false
}

// issue tries to start u, of FU class cl, on a functional unit this cycle
// and reports whether one was free. With Clustered, primaries draw from
// cluster 0's pool and shadow copies from cluster 1's.
//
//lint:hotpath
func (c *Core) issue(u *uop, cl int) bool {
	op := u.rec.Instr.Op
	pool := c.fus
	if c.cfg.Clustered && u.dup {
		pool = c.fusDup
	}
	if !pool.alloc(isa.FUClass(cl), c.cycle, occupancy(op)) {
		return false
	}
	c.acted = true
	c.Stats.IssueSlotsUsed++
	c.Stats.Issued[fuBucket(op)]++
	if u.dup {
		c.Stats.DupFUExec++
	}
	if u.irbPCHit && !u.irbTested {
		c.Stats.IRBNotReady++
	}
	if c.tracer != nil {
		c.tracer.Issue(c.cycle, u.seq, u.dup, &u.rec)
	}
	u.state = uIssued
	if op.Info().IsMem() {
		// Address generation: one IntALU cycle; the memory access
		// (primary copy only) follows via the LSQ.
		c.events.schedule(c.cycle+1, evAddrDone, u)
	} else {
		c.events.schedule(c.cycle+uint64(op.Info().Latency), evExecDone, u)
	}
	return true
}
