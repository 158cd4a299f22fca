package core

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/fsim"
)

// countingTracer tallies events per kind.
type countingTracer struct {
	dispatch, issue, reuse, complete, squash, commit int
	wrongPath                                        int
}

func (c *countingTracer) Dispatch(_, _ uint64, _, wrong bool, _ *fsim.Retired) {
	c.dispatch++
	if wrong {
		c.wrongPath++
	}
}
func (c *countingTracer) Issue(_, _ uint64, _ bool, _ *fsim.Retired)    { c.issue++ }
func (c *countingTracer) ReuseHit(_, _ uint64, _ *fsim.Retired)         { c.reuse++ }
func (c *countingTracer) Complete(_, _ uint64, _ bool, _ *fsim.Retired) { c.complete++ }
func (c *countingTracer) Squash(_ uint64, _ int)                        { c.squash++ }
func (c *countingTracer) Commit(_, _ uint64, _ *fsim.Retired)           { c.commit++ }

func TestTracerEventCountsMatchStats(t *testing.T) {
	prog := branchyProgram(200)
	c, err := New(quicken(baseConfig(DIEIRB)), prog)
	if err != nil {
		t.Fatal(err)
	}
	tr := &countingTracer{}
	c.SetTracer(tr)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	s := c.Stats
	if uint64(tr.dispatch) != s.Dispatched {
		t.Errorf("dispatch events %d != stat %d", tr.dispatch, s.Dispatched)
	}
	if uint64(tr.wrongPath) != s.WrongPath {
		t.Errorf("wrong-path events %d != stat %d", tr.wrongPath, s.WrongPath)
	}
	if uint64(tr.reuse) != s.IRBReuseHits {
		t.Errorf("reuse events %d != stat %d", tr.reuse, s.IRBReuseHits)
	}
	if uint64(tr.commit) != s.Committed {
		t.Errorf("commit events %d != stat %d", tr.commit, s.Committed)
	}
	if uint64(tr.squash) != s.Mispredicts {
		t.Errorf("squash events %d != mispredicts %d", tr.squash, s.Mispredicts)
	}
	if uint64(tr.issue) != s.IssueSlotsUsed {
		t.Errorf("issue events %d != stat %d", tr.issue, s.IssueSlotsUsed)
	}
	if tr.complete < tr.commit {
		t.Errorf("completions %d below commits %d", tr.complete, tr.commit)
	}
}

func TestTextTracerOutput(t *testing.T) {
	var sb strings.Builder
	prog := loopProgram(5)
	c, err := New(quicken(baseConfig(DIEIRB)), prog)
	if err != nil {
		t.Fatal(err)
	}
	c.SetTracer(&TextTracer{W: &sb})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"dispatch", "issue", "complete", "commit"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q events:\n%s", want, out[:min(len(out), 500)])
		}
	}
	// Duplicates are marked with the D stream tag.
	if !strings.Contains(out, " D pc=") {
		t.Error("trace never shows duplicate-stream events")
	}
}

func TestTextTracerWindow(t *testing.T) {
	var sb strings.Builder
	prog := loopProgram(200)
	c, err := New(quicken(baseConfig(SIE)), prog)
	if err != nil {
		t.Fatal(err)
	}
	c.SetTracer(&TextTracer{W: &sb, MaxCycles: 10})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		cyc, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			t.Fatalf("unparseable trace line %q", line)
		}
		if cyc > 10 {
			t.Fatalf("event beyond the traced window: %q", line)
		}
	}
}
