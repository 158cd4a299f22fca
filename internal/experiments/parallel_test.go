package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
)

// TestGridSerialParallelEquivalence runs the same experiment grid with
// one worker and with eight and requires identical Result values in
// every cell — the acceptance bar for the parallel sweep engine.
func TestGridSerialParallelEquivalence(t *testing.T) {
	cfgs := sim.HeadlineConfigs()
	serialOpts := quickOpts()
	serialOpts.Insns = 20_000
	serialOpts.Parallelism = 1
	parallelOpts := serialOpts
	parallelOpts.Parallelism = 8

	serial, err := runGrid(cfgs, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runGrid(cfgs, parallelOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Benchmarks, parallel.Benchmarks) ||
		!reflect.DeepEqual(serial.Configs, parallel.Configs) {
		t.Fatal("grid axes differ between serial and parallel runs")
	}
	for b := range serial.Benchmarks {
		for c := range serial.Configs {
			if !reflect.DeepEqual(serial.Results[b][c], parallel.Results[b][c]) {
				t.Errorf("cell %s/%s differs between serial and parallel runs",
					serial.Benchmarks[b], serial.Configs[c])
			}
		}
	}
}

// TestGridErrorIsolation poisons one configuration in a grid: its column
// fails on every benchmark, every other cell still completes, and the
// aggregate error names the failed cells.
func TestGridErrorIsolation(t *testing.T) {
	sieMode, _ := core.SIE.Info()
	dieMode, _ := core.DIE.Info()
	bad := dieMode.Base()
	bad.RUUSize = -1
	cfgs := []sim.NamedConfig{
		{Name: "SIE", Cfg: sieMode.Base()},
		{Name: "broken", Cfg: bad},
		{Name: "DIE", Cfg: dieMode.Base()},
	}
	opts := quickOpts()
	opts.Insns = 10_000
	opts.Parallelism = 4

	g, err := runGrid(cfgs, opts)
	if err == nil {
		t.Fatal("grid with a broken configuration reported no error")
	}
	if !strings.Contains(err.Error(), "broken") {
		t.Errorf("aggregate error does not name the broken config: %v", err)
	}
	if !errors.Is(g.Err(), err) && g.Err().Error() != err.Error() {
		t.Errorf("Grid.Err() disagrees with the returned error:\n %v\n vs %v", g.Err(), err)
	}
	for b := range g.Benchmarks {
		for c, name := range g.Configs {
			cellErr := g.Errs[b][c]
			if name == "broken" {
				if cellErr == nil {
					t.Errorf("%s on broken config reported no error", g.Benchmarks[b])
				}
				continue
			}
			if cellErr != nil {
				t.Errorf("healthy cell %s/%s failed: %v", g.Benchmarks[b], name, cellErr)
			}
			if g.Results[b][c].IPC <= 0 {
				t.Errorf("healthy cell %s/%s has no result", g.Benchmarks[b], name)
			}
		}
	}
}

// TestGridCancellation cancels a sweep from the progress callback and
// checks the experiment returns promptly with the context error while
// keeping the cells that did complete.
func TestGridCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := quickOpts()
	opts.Insns = 15_000
	opts.Parallelism = 2
	opts.Context = ctx
	opts.Progress = func(p runner.Progress) {
		if p.Done == 2 {
			cancel()
		}
	}

	g, err := runGrid(sim.HeadlineConfigs(), opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var done int
	for b := range g.Benchmarks {
		for c := range g.Configs {
			switch cellErr := g.Errs[b][c]; {
			case cellErr == nil:
				done++
			case !errors.Is(cellErr, context.Canceled):
				t.Errorf("cell %s/%s: %v", g.Benchmarks[b], g.Configs[c], cellErr)
			}
		}
	}
	if done < 2 {
		t.Errorf("%d cells completed before cancellation, want >= 2", done)
	}
	if done == len(g.Benchmarks)*len(g.Configs) {
		t.Error("cancellation did not skip any cell")
	}
}
