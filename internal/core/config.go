// Package core implements the cycle-level out-of-order superscalar
// processor model of this reproduction: a unified-RUU machine in the style
// of SimpleScalar's sim-outorder, extended with the paper's two execution
// modes — DIE (dual instruction execution: every instruction duplicated at
// dispatch and checked at commit) and DIE-IRB (the duplicate stream served
// by an Instruction Reuse Buffer looked up in parallel with fetch).
//
// Timing model per cycle, evaluated commit-first so that same-cycle
// hand-offs between stages behave like a real pipeline:
//
//	commit -> writeback/wakeup -> memory issue -> select/issue ->
//	dispatch -> fetch
//
// Like sim-outorder, instructions execute functionally at dispatch (via
// internal/fsim, including wrong-path execution against a speculative
// overlay) and the pipeline plays out timing; commit verifies the pair
// signatures (DIE) and an external oracle can verify the retired stream.
package core

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/irb"
	"repro/internal/isa"
	"repro/internal/trb"
)

// Mode selects the redundancy scheme of the core. A Mode is the name of a
// registered descriptor (see ModeInfo and Modes); the constants below are
// the built-in schemes, registered in modes.go.
type Mode string

const (
	// SIE is single instruction execution: a conventional superscalar
	// with no temporal redundancy.
	SIE Mode = "SIE"
	// DIE duplicates every instruction at dispatch; the two copies flow
	// through the shared pipeline independently (each stream has its own
	// dataflow) and are compared at commit.
	DIE Mode = "DIE"
	// DIEIRB is DIE extended with the instruction reuse buffer: the
	// duplicate stream looks the IRB up in parallel with fetch and, on a
	// reuse hit, skips the functional units. Duplicate-stream consumers
	// are woken by primary-stream results, so the IRB adds no
	// result-forwarding buses.
	DIEIRB Mode = "DIE-IRB"
	// SIEIRB is the prior-work configuration the paper builds on
	// (Sodani & Sohi's dynamic instruction reuse): a single instruction
	// stream whose instructions consult the IRB and skip the functional
	// units on a reuse hit. Here the IRB acts as a functional unit whose
	// results broadcast to waiting instructions; combine with IRBAsFU to
	// charge the issue-logic cost the paper argues this incurs.
	SIEIRB Mode = "SIE-IRB"
	// REPLAY detects faults by checkpoint plus deterministic replay (in
	// the style of RepTFD) instead of inline duplication: the single
	// stream executes at SIE speed, and every ReplayEpoch committed
	// instructions the epoch is re-executed by a replay engine and the
	// two commit streams compared. Replay bandwidth is charged against
	// the same datapath, and a detected fault rewinds the whole epoch —
	// detection latency and MTTR are epoch-scale by construction.
	REPLAY Mode = "REPLAY"
	// TMR is triple modular redundancy at instruction level (in the
	// style of ELZAR): VoteWidth copies (default three) dispatch per
	// instruction and commit takes a majority vote over their outcome
	// signatures. A single-copy strike is outvoted and corrected in
	// place — no flush, no re-execution — so MTTR is zero for the
	// single-fault model; only a votes-split tie falls back to the
	// rewind path.
	TMR Mode = "TMR"
	// DIETRB is DIE-IRB extended with the trace reuse buffer: loop
	// windows whose output signatures are a pure function of their entry
	// PC and live-in register values (extracted statically by
	// analysis.TraceBlocks) are memoized whole, and a hit skips the
	// duplicate stream past the entire window for one lookup's latency.
	// Anything outside a window — and any window whose live-ins
	// mismatch — falls back to per-instruction DIE-IRB behavior.
	DIETRB Mode = "DIE-TRB"
)

// SchedulerKind selects the instruction scheduler model.
type SchedulerKind string

const (
	// DataCapture is the paper's default: operand values are captured
	// into the issue window, where the reuse test runs overlapped with
	// wakeup (Figure 5's Rdy2L/Rdy2R logic).
	DataCapture SchedulerKind = ""
	// Decoupled is the non-data-capture alternative of Section 3.3:
	// wakeup and selection are pipelined into separate cycles, with
	// operands read from the register file (and the reuse test run)
	// between them.
	Decoupled SchedulerKind = "decoupled"
)

// DefaultReplayEpoch is the checkpoint interval of REPLAY mode when
// Config.ReplayEpoch is zero: committed instructions per replayed epoch.
const DefaultReplayEpoch = 512

// maxVoteWidth bounds Config.VoteWidth; the commit-time vote uses a
// fixed-size scratch array and wider TMR is not a design point anyone
// proposes.
const maxVoteWidth = 7

// Config describes the simulated machine.
type Config struct {
	Mode Mode

	FetchWidth  int // instructions fetched per cycle
	DecodeWidth int // dispatch slots per cycle (a DIE pair uses two)
	IssueWidth  int // instructions selected for execution per cycle
	CommitWidth int // retirement slots per cycle (a DIE pair uses two)

	FetchQueue int // fetch-to-dispatch buffer entries

	RUUSize int // unified ROB + issue window entries (a pair uses two)
	LSQSize int // load/store queue entries (one per architected memory op)

	// FUs gives the number of functional units per class, indexed by
	// isa.FUClass. FUMemPort is the number of data cache ports.
	FUs [isa.NumFUClasses]int

	Bpred bpred.Config
	Cache cache.HierarchyConfig

	// IRB configures the reuse buffer; used only in DIE-IRB mode.
	IRB irb.Config

	// IRBBothStreams also routes primary-stream instructions through the
	// IRB (ablation: the paper sends only the duplicate stream to keep
	// port requirements low; primaries then contend for ports).
	IRBBothStreams bool

	// IRBAsFU models the prior-work alternative in which the IRB
	// behaves like a functional unit whose read ports broadcast results
	// into the issue window. The paper rejects this because each extra
	// broadcast source grows the wakeup/bypass logic like extra issue
	// width; the model charges that cost by deducting the IRB's read
	// ports from the issue width available each cycle (ablation B).
	IRBAsFU bool

	// Scheduler selects the issue-logic style (Section 3.3 of the
	// paper). The default data-capture scheduler holds operand values in
	// the issue window and performs the reuse test there; the decoupled
	// (non-data-capture) scheduler pipelines wakeup and selection into
	// separate cycles — operands are read from the register file after
	// wakeup and the reuse test follows that read — costing one cycle on
	// every dependence chain.
	Scheduler SchedulerKind

	// IRBNameBased switches the reuse test from operand values to
	// register names (Section 3.3's last paragraph): an entry hits when
	// no write to its source registers has entered the pipeline since it
	// was created. Hit rates decrease, but a non-data-capture scheduler
	// can run this test without reading operand values at all.
	IRBNameBased bool

	// Clustered models the alternative the paper's Section 3 discusses
	// and rejects: two clusters with separate issue units (each of half
	// the issue width) scheduling separate, fully replicated sets of
	// ALUs, the primary stream steered to one cluster and the duplicate
	// to the other, with a one-cycle inter-cluster forwarding penalty.
	// It removes the shared-ALU contention, but the replicated ALUs,
	// issue window and register file are exactly why the paper calls it
	// "almost a spatial redundancy approach" — those transistors could
	// have sped up SIE instead. Only meaningful for dual modes.
	Clustered bool

	// IRBChaining enables dependent-chain reuse in the style of Sodani &
	// Sohi's Sn+d scheme (the "collapsing true dependencies" capability
	// instruction reuse was originally proposed for): a reuse hit's
	// value becomes usable by a dependent instruction's reuse test in
	// the same cycle, so whole chains of buffered instructions collapse
	// at once. Without it a reuse hit's value reaches consumers' operand
	// lines one cycle later, like any other broadcast.
	IRBChaining bool

	// IRBSquashReuse also inserts completed wrong-path instructions into
	// the IRB when they are squashed ([29]'s "squash reuse"): after a
	// misprediction recovery, the re-executed convergent instructions
	// can reuse the work the wrong path already did. Inserts contend for
	// the IRB's write ports like any others.
	IRBSquashReuse bool

	// FaultRetryLimit bounds consecutive commit-check failures at one
	// static PC before the core aborts with an UnrecoverableFaultError
	// (0 = DefaultFaultRetryLimit). Only meaningful with a fault injector
	// attached.
	FaultRetryLimit int

	// ReplayEpoch is REPLAY mode's checkpoint interval: committed
	// instructions per replayed epoch (0 = DefaultReplayEpoch). The
	// json tag keeps the zero value out of runner fingerprints, so
	// pre-existing cache keys are unchanged.
	ReplayEpoch uint64 `json:",omitempty"`

	// VoteWidth is TMR mode's copy count: how many copies of each
	// instruction dispatch and vote at commit. Odd, 3..7 (0 = 3). The
	// json tag keeps the zero value out of runner fingerprints.
	VoteWidth int `json:",omitempty"`

	// TRBEntries sizes DIE-TRB mode's trace reuse buffer: window
	// recordings, direct-mapped by entry PC, power of two (0 =
	// trb.Default's 256). The json tag keeps the zero value out of
	// runner fingerprints.
	TRBEntries int `json:",omitempty"`

	// TRBMaxBlockLen caps DIE-TRB windows in instructions — both the
	// static extraction and the per-entry signature storage (0 =
	// trb.Default's 16). The json tag keeps the zero value out of
	// runner fingerprints.
	TRBMaxBlockLen int `json:",omitempty"`

	// MaxInsns stops simulation after this many architected instructions
	// commit (0 = run to halt).
	MaxInsns uint64

	// MaxCycles aborts a run that exceeds this many cycles, guarding
	// against deadlocked-pipeline bugs (0 = no bound).
	MaxCycles uint64
}

// baseConfig returns the paper's baseline machine (Section 2.2) running
// in the given mode: 8-wide, 128-entry RUU, 64-entry LSQ, 4 integer ALUs,
// 2 integer multipliers, 2 FP adders, 1 FP multiplier, 2 cache ports. The
// mode registry's Base builders all bottom out here.
func baseConfig(m Mode) Config {
	c := Config{
		Mode:        m,
		FetchWidth:  8,
		DecodeWidth: 8,
		IssueWidth:  8,
		CommitWidth: 8,
		FetchQueue:  16,
		RUUSize:     128,
		LSQSize:     64,
		Bpred:       bpred.Default(),
		Cache:       cache.DefaultHierarchy(),
		IRB:         irb.Default(),
		MaxCycles:   500_000_000,
	}
	c.FUs[isa.FUIntALU] = 4
	c.FUs[isa.FUIntMult] = 2
	c.FUs[isa.FUFPAdd] = 2
	c.FUs[isa.FUFPMult] = 1
	c.FUs[isa.FUMemPort] = 2
	return c
}

// Streams returns how many copies of each architected instruction the
// configured machine dispatches: the mode's stream count, widened by
// VoteWidth for voting modes.
func (c Config) Streams() int {
	caps := c.Mode.Caps()
	if caps.Compare == CompareVote && c.VoteWidth > 0 {
		return c.VoteWidth
	}
	if caps.Streams < 1 {
		return 1
	}
	return caps.Streams
}

// WithDoubledALUs returns c with all functional unit counts doubled
// (the paper's 2xALU configurations double the ALU mix to 8/4/4/2).
func (c Config) WithDoubledALUs() Config {
	c.FUs[isa.FUIntALU] *= 2
	c.FUs[isa.FUIntMult] *= 2
	c.FUs[isa.FUFPAdd] *= 2
	c.FUs[isa.FUFPMult] *= 2
	return c
}

// WithDoubledRUU returns c with RUU and LSQ capacity doubled.
func (c Config) WithDoubledRUU() Config {
	c.RUUSize *= 2
	c.LSQSize *= 2
	return c
}

// WithDoubledWidths returns c with fetch/decode/issue/commit widths
// doubled.
func (c Config) WithDoubledWidths() Config {
	c.FetchWidth *= 2
	c.DecodeWidth *= 2
	c.IssueWidth *= 2
	c.CommitWidth *= 2
	c.FetchQueue *= 2
	return c
}

// Validate reports configuration errors. The mode must name a registered
// descriptor (see RegisterMode); mode-specific knobs are rejected on
// modes whose capabilities do not use them, so a knob typo cannot
// silently produce a differently-fingerprinted but identical run.
func (c Config) Validate() error {
	info, registered := c.Mode.Info()
	if !registered {
		return fmt.Errorf("core: unknown mode %q (registered: %s)", c.Mode, knownModes())
	}
	caps := info.Caps
	for _, f := range []struct {
		name string
		v    int
	}{
		{"FetchWidth", c.FetchWidth},
		{"DecodeWidth", c.DecodeWidth},
		{"IssueWidth", c.IssueWidth},
		{"CommitWidth", c.CommitWidth},
		{"FetchQueue", c.FetchQueue},
		{"RUUSize", c.RUUSize},
		{"LSQSize", c.LSQSize},
	} {
		if f.v <= 0 {
			return fmt.Errorf("core: %s = %d, want > 0", f.name, f.v)
		}
	}
	if s := c.Streams(); c.RUUSize < s {
		return fmt.Errorf("core: RUUSize = %d, want >= %d for %d-stream execution", c.RUUSize, s, s)
	}
	if s := c.Streams(); c.DecodeWidth < s || c.CommitWidth < s {
		return fmt.Errorf("core: DecodeWidth/CommitWidth = %d/%d, want >= %d (one full copy group per slot group)",
			c.DecodeWidth, c.CommitWidth, s)
	}
	if c.VoteWidth != 0 {
		if caps.Compare != CompareVote {
			return fmt.Errorf("core: VoteWidth set but mode %q takes no vote", c.Mode)
		}
		if c.VoteWidth < 3 || c.VoteWidth > maxVoteWidth || c.VoteWidth%2 == 0 {
			return fmt.Errorf("core: VoteWidth = %d, want odd in [3, %d]", c.VoteWidth, maxVoteWidth)
		}
	}
	if c.ReplayEpoch != 0 && caps.Compare != CompareEpoch {
		return fmt.Errorf("core: ReplayEpoch set but mode %q does not replay epochs", c.Mode)
	}
	if (c.TRBEntries != 0 || c.TRBMaxBlockLen != 0) && !caps.UsesTRB {
		return fmt.Errorf("core: TRB knobs set but mode %q has no trace reuse buffer", c.Mode)
	}
	for cl := isa.FUIntALU; cl < isa.NumFUClasses; cl++ {
		if c.FUs[cl] <= 0 {
			return fmt.Errorf("core: no %v units", cl)
		}
	}
	switch c.Scheduler {
	case DataCapture, Decoupled:
	default:
		return fmt.Errorf("core: unknown scheduler %q", c.Scheduler)
	}
	if c.Clustered && c.Streams() != 2 {
		return fmt.Errorf("core: Clustered requires a dual execution mode")
	}
	if c.FaultRetryLimit < 0 {
		return fmt.Errorf("core: FaultRetryLimit = %d, want >= 0", c.FaultRetryLimit)
	}
	if err := c.Bpred.Validate(); err != nil {
		return err
	}
	if caps.UsesIRB {
		if err := c.IRB.Validate(); err != nil {
			return err
		}
	}
	if caps.UsesTRB {
		if err := c.trbConfig().Validate(); err != nil {
			return err
		}
	}
	return nil
}

// trbConfig resolves the TRB knobs onto the package defaults; fields the
// knobs do not expose (live-in cap, lookup latency) stay at trb.Default.
func (c Config) trbConfig() trb.Config {
	tc := trb.Default()
	if c.TRBEntries > 0 {
		tc.Entries = c.TRBEntries
	}
	if c.TRBMaxBlockLen > 0 {
		tc.MaxBlockLen = c.TRBMaxBlockLen
	}
	return tc
}
