package core

import (
	"errors"
	"testing"

	"repro/internal/fault"
)

// TestNewBatchSimValidation: the batch shim rejects lane sets it cannot
// honour before the core runs a single cycle.
func TestNewBatchSimValidation(t *testing.T) {
	prog := loopProgram(50)
	mk := func() *Core {
		c, err := New(baseConfig(DIE), prog)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	if _, err := NewBatchSim(mk(), nil); err == nil {
		t.Error("zero lanes accepted")
	}

	occupied := mk()
	inj, err := fault.New(fault.Config{Site: fault.FU, Rate: 1e-3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	occupied.SetInjector(inj)
	if _, err := NewBatchSim(occupied, []FaultInjector{nil}); err == nil {
		t.Error("core with an installed injector accepted")
	}
}

// TestBatchSimLaneAccounting: construction resets lane injectors and
// installs the shim; eviction retires lanes one by one, and draining a
// batch with no fault-free lane aborts the leader with ErrBatchDrained.
func TestBatchSimLaneAccounting(t *testing.T) {
	prog := loopProgram(50)
	c, err := New(baseConfig(DIE), prog)
	if err != nil {
		t.Fatal(err)
	}
	var injs []FaultInjector
	for seed := uint64(1); seed <= 2; seed++ {
		inj, ferr := fault.New(fault.Config{Site: fault.FU, Rate: 0.9, Seed: seed})
		if ferr != nil {
			t.Fatal(ferr)
		}
		inj.FUResult(1, 0, false, 0) // consumed state: NewBatchSim must Reset it
		injs = append(injs, inj)
	}
	bs, err := NewBatchSim(c, injs)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Lanes() != 2 || bs.Active() != 2 {
		t.Fatalf("Lanes/Active = %d/%d, want 2/2", bs.Lanes(), bs.Active())
	}
	for i, inj := range injs {
		if inj.(*fault.Injector).Injected != 0 {
			t.Errorf("lane %d injector not reset at construction", i)
		}
	}

	// At rate 0.9 both lanes fire on the first probes; with no fault-free
	// lane the leader must drain out of Run with ErrBatchDrained.
	err = c.Run()
	if !errors.Is(err, ErrBatchDrained) {
		t.Fatalf("Run() = %v, want ErrBatchDrained", err)
	}
	if bs.Active() != 0 {
		t.Errorf("Active = %d after drain, want 0", bs.Active())
	}
	for i := range injs {
		if seq, div := bs.Diverged(i); !div || seq == 0 {
			t.Errorf("lane %d: Diverged = (%d,%t), want a nonzero strike seq", i, seq, div)
		}
	}
}
